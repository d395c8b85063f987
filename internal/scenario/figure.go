package scenario

import (
	"encoding/json"
	"fmt"
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

// BaselinePath names an experiment's pin, its committed figure at a
// fidelity tier: <dir>/<id>.<fidelity>.json.
func BaselinePath(dir, id, fidelity string) string {
	return filepath.Join(dir, id+"."+fidelity+".json")
}

// LoadBaseline reads a pin. A missing pin is an error — an experiment
// with no pinned figure must fail loudly, not pass vacuously.
func LoadBaseline(dir, id, fidelity string) (Figure, error) {
	path := BaselinePath(dir, id, fidelity)
	file, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return Figure{}, fmt.Errorf(
				"scenario %s: no committed %s-fidelity pin at %s (run with -update to create it)",
				id, fidelity, path)
		}
		return Figure{}, err
	}
	defer file.Close()
	var f Figure
	dec := json.NewDecoder(file)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return Figure{}, fmt.Errorf("%s: scenario: %w", path, err)
	}
	return f, nil
}

// WriteBaseline writes (or overwrites) a pin.
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
