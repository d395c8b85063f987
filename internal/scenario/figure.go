package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"grape6/internal/bench"
)

// Figure is bench.Figure, the one figure type. The alias exists solely
// because the frozen benchmark/fig13.go declares `var base scenario.Figure`;
// the type itself cannot live here, since this package imports
// bench.Options.
type Figure = bench.Figure

// ReadFigure decodes a figure JSON stream.
func ReadFigure(r io.Reader) (Figure, error) {
	var f Figure
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return Figure{}, fmt.Errorf("scenario: %w", err)
	}
	return f, nil
}

// BaselinePath names the committed baseline for an experiment id at a
// fidelity tier: <dir>/<id>.<fidelity>.json.
func BaselinePath(dir, id, fidelity string) string {
	return filepath.Join(dir, id+"."+fidelity+".json")
}

// LoadBaseline reads the committed baseline. A missing baseline is an
// error — an experiment with no pinned curve must fail loudly, not pass
// vacuously.
func LoadBaseline(dir, id, fidelity string) (Figure, error) {
	path := BaselinePath(dir, id, fidelity)
	file, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return Figure{}, fmt.Errorf(
				"scenario %s: no committed %s-fidelity baseline at %s (run with -update to create it)",
				id, fidelity, path)
		}
		return Figure{}, err
	}
	defer file.Close()
	f, err := ReadFigure(file)
	if err != nil {
		return Figure{}, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// WriteBaseline writes (or overwrites) the committed baseline file.
func WriteBaseline(dir string, f Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf strings.Builder
	if err := f.Write(&buf); err != nil {
		return err
	}
	return os.WriteFile(BaselinePath(dir, f.ID, f.Fidelity), []byte(buf.String()), 0o644)
}
