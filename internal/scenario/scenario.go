// Package scenario is the experiment table: every experiment id is one
// Spec under scenarios/. A declarative spec names particle counts,
// softening choices and backend topologies (direct model curves, GRAPE
// fleets, message-level co-simulation), and Run expands the cross-product
// through the existing bench/timing/parallel/perfmodel layers into a
// figure; a spec of kind "go" runs its bench.Experiments function instead.
// Every figure is pinned under testdata/scenarios/, and Diff reports each
// way a figure differs from its pin: a figure diffs clean only when it
// would Write its pin's bytes.
//
// The spec grammar and the add-a-row / re-pin workflows are documented in
// DESIGN.md §4.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"grape6/internal/bench"
	"grape6/internal/board"
	"grape6/internal/model"
	"grape6/internal/nbody"
	"grape6/internal/parallel"
	"grape6/internal/perfmodel"
	"grape6/internal/simnet"
	"grape6/internal/units"
	"grape6/internal/xrand"
)

// Spec is one experiment: a figure identity plus the axes whose
// cross-product Run executes, or, for kind "go", none.
type Spec struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// Kind selects how Run makes the figure: "speed" (flops vs N through
	// the timing simulator), "timeperstep" (seconds per particle step vs
	// N), "cosim" (message-level co-simulation step rates vs host count),
	// or "go" (bench.Experiments[ID], which declares no axis).
	Kind  string `json:"kind"`
	Paper string `json:"paper,omitempty"` // the paper's reported result

	// Unit overrides the y units of model-driven kinds: "Gflops"
	// (default) or "Tflops" for speed; timeperstep is always "s/step".
	Unit string `json:"unit,omitempty"`

	// Softening lists the workload softening choices: "const", "ncbrt",
	// "overn" (default ["const"]). Each entry multiplies the machine
	// axis into one series per (machine, softening).
	Softening []string `json:"softening,omitempty"`

	// Cosim-kind workload: the Plummer model's size and integration
	// span per fidelity tier.
	N         int     `json:"n,omitempty"`
	QuickN    int     `json:"quick_n,omitempty"`
	TEnd      float64 `json:"t_end,omitempty"`
	QuickTEnd float64 `json:"quick_t_end,omitempty"`

	// Machines is the topology axis: one entry per backend
	// configuration (model curves) or per algorithm sweep (cosim).
	Machines []MachineSpec `json:"machines"`

	Notes []string `json:"notes,omitempty"`
}

// MachineSpec is one backend topology of the matrix.
type MachineSpec struct {
	// Label names the series; empty uses the softening label alone.
	Label string `json:"label,omitempty"`

	// Curve selects how model-kind values are produced: "trace"
	// (default; block-by-block through the timing simulator over
	// measured and synthetic traces) or "model" (the analytic
	// mean-block-size prediction, the dashed/dotted curves of the
	// figures).
	Curve string `json:"curve,omitempty"`

	// Topology: clusters × hosts per cluster, each host with
	// boards × chips GRAPE silicon. Zero values take the production
	// defaults (1 cluster, 1 host, 4 boards, 32 chips per board).
	Clusters int `json:"clusters,omitempty"`
	Hosts    int `json:"hosts_per_cluster,omitempty"`
	Boards   int `json:"boards_per_host,omitempty"`
	Chips    int `json:"chips_per_board,omitempty"`

	// ClockMHz overrides the pipeline clock (default the production
	// 90 MHz; GRAPE-6A cards ran at 96).
	ClockMHz float64 `json:"chip_clock_mhz,omitempty"`

	// NIC and Host select the interconnect and frontend profiles by
	// name (LookupNIC / LookupHost).
	NIC  string `json:"nic"`
	Host string `json:"host"`

	// FlatCache zeroes the host cache model — the constant-host-time
	// (dashed) variant of Figure 14.
	FlatCache bool `json:"flat_cache,omitempty"`

	// Cosim kind only: the parallel algorithm and the (hosts, clusters)
	// sweep whose step rates form the series.
	Algo  string      `json:"algo,omitempty"`
	Sweep []CosimCell `json:"sweep,omitempty"`
}

// CosimCell is one co-simulation configuration of a sweep.
type CosimCell struct {
	Hosts    int `json:"hosts"`
	Clusters int `json:"clusters,omitempty"` // hybrid algorithm only
}

// Load reads and validates one spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// Parse decodes and validates a spec. Unknown fields are errors so typos
// in a spec file cannot silently drop an axis.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadDir reads every *.json spec in dir, sorted by id.
func LoadDir(dir string) ([]*Spec, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenario: no specs under %s", dir)
	}
	sort.Strings(paths)
	specs := make([]*Spec, 0, len(paths))
	seen := make(map[string]string)
	for _, p := range paths {
		s, err := Load(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if prev, dup := seen[s.ID]; dup {
			return nil, fmt.Errorf("scenario: id %q in both %s and %s", s.ID, prev, p)
		}
		seen[s.ID] = p
		specs = append(specs, s)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].ID < specs[j].ID })
	return specs, nil
}

// Validate reports grammar errors.
func (s *Spec) Validate() error {
	_, err := s.Expand()
	return err
}

// Expand validates the spec and returns the deterministic cross-product
// of its axes, one Cell per output series.
func (s *Spec) Expand() ([]Cell, error) {
	if s.ID == "" {
		return nil, fmt.Errorf("scenario: spec without id")
	}
	switch s.Kind {
	case "go":
		if _, ok := bench.Experiments[s.ID]; !ok {
			return nil, fmt.Errorf("scenario %s: kind go, but bench.Experiments has no %q", s.ID, s.ID)
		}
		if len(s.Machines) > 0 || len(s.Softening) > 0 || s.Unit != "" ||
			s.N != 0 || s.QuickN != 0 || s.TEnd != 0 || s.QuickTEnd != 0 {
			return nil, fmt.Errorf("scenario %s: a go-kind spec declares no axis", s.ID)
		}
		return nil, nil
	case "speed", "timeperstep", "cosim":
	default:
		return nil, fmt.Errorf("scenario %s: unknown kind %q (want speed, timeperstep, cosim or go)", s.ID, s.Kind)
	}
	if len(s.Machines) == 0 {
		return nil, fmt.Errorf("scenario %s: no machines", s.ID)
	}
	switch s.Unit {
	case "", "Gflops", "Tflops":
	default:
		return nil, fmt.Errorf("scenario %s: unknown unit %q", s.ID, s.Unit)
	}
	for _, name := range s.Softening {
		if _, ok := LookupSoftening(name); !ok {
			return nil, fmt.Errorf("scenario %s: unknown softening %q", s.ID, name)
		}
	}
	for i, m := range s.Machines {
		if _, ok := LookupNIC(m.NIC); !ok {
			return nil, fmt.Errorf("scenario %s: machine %d: unknown NIC %q", s.ID, i, m.NIC)
		}
		if _, ok := LookupHost(m.Host); !ok {
			return nil, fmt.Errorf("scenario %s: machine %d: unknown host %q", s.ID, i, m.Host)
		}
		if s.Kind == "cosim" {
			if !parallel.Known(m.Algo) {
				return nil, fmt.Errorf("scenario %s: machine %d: unknown algorithm %q", s.ID, i, m.Algo)
			}
			if len(m.Sweep) == 0 {
				return nil, fmt.Errorf("scenario %s: machine %d: cosim sweep is empty", s.ID, i)
			}
			for _, c := range m.Sweep {
				if c.Hosts <= 0 {
					return nil, fmt.Errorf("scenario %s: machine %d: non-positive host count %d", s.ID, i, c.Hosts)
				}
				if m.Algo == "hybrid" && c.Clusters <= 0 {
					return nil, fmt.Errorf("scenario %s: machine %d: hybrid sweep needs clusters", s.ID, i)
				}
			}
		} else {
			switch m.Curve {
			case "", "trace", "model":
			default:
				return nil, fmt.Errorf("scenario %s: machine %d: unknown curve %q", s.ID, i, m.Curve)
			}
			if _, err := m.Build(); err != nil {
				return nil, err
			}
		}
	}
	cells := s.cells()
	// Diff finds a series by its label, so no two may share one.
	seen := make(map[string]bool, len(cells))
	for _, c := range cells {
		if seen[c.Label] {
			return nil, fmt.Errorf("scenario %s: two series labelled %q", s.ID, c.Label)
		}
		seen[c.Label] = true
	}
	return cells, nil
}

// Build constructs the perfmodel machine for a model-kind entry.
func (m MachineSpec) Build() (perfmodel.Machine, error) {
	nic, ok := LookupNIC(m.NIC)
	if !ok {
		return perfmodel.Machine{}, fmt.Errorf("scenario: unknown NIC %q", m.NIC)
	}
	host, ok := LookupHost(m.Host)
	if !ok {
		return perfmodel.Machine{}, fmt.Errorf("scenario: unknown host %q", m.Host)
	}
	if m.FlatCache {
		host.CacheBytes = 0
	}
	hw := board.Default
	if m.Boards > 0 {
		hw.Boards = m.Boards
	}
	if m.Chips > 0 {
		hw.ChipsPerModule, hw.ModulesPerBoard = m.Chips, 1
	}
	if m.ClockMHz > 0 {
		hw.Chip.ClockHz = m.ClockMHz * 1e6
	}
	mm := perfmodel.Machine{
		Name:       m.Label,
		Clusters:   max1(m.Clusters),
		HostsPerCl: max1(m.Hosts),
		Attach:     hw,
		Link:       perfmodel.PCI,
		NIC:        nic,
		Host:       host,
	}
	if err := mm.Validate(); err != nil {
		return perfmodel.Machine{}, err
	}
	return mm, nil
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

// LookupNIC resolves a NIC profile by its spec/CLI name. cmd/grape6sim
// shares this table for its -nic flag.
func LookupNIC(name string) (simnet.NIC, bool) {
	switch name {
	case "ns83820":
		return simnet.NS83820, true
	case "tigon2":
		return simnet.Tigon2, true
	case "intel82540em":
		return simnet.Intel82540EM, true
	case "myrinet":
		return simnet.Myrinet, true
	case "bypass":
		return simnet.KernelBypass, true
	}
	return simnet.NIC{}, false
}

// LookupHost resolves a frontend profile by name.
func LookupHost(name string) (perfmodel.HostProfile, bool) {
	switch name {
	case "athlon":
		return perfmodel.Athlon, true
	case "p4":
		return perfmodel.P4, true
	}
	return perfmodel.HostProfile{}, false
}

// LookupSoftening resolves a softening choice by its spec/CLI name.
func LookupSoftening(name string) (units.SofteningKind, bool) {
	switch name {
	case "const":
		return units.SoftConstant, true
	case "ncbrt":
		return units.SoftNDependent, true
	case "overn":
		return units.SoftOverN, true
	}
	return 0, false
}

// BuildModel samples an initial model by name: grape6sim's -model flag. w0 is the King
// central potential (ignored elsewhere).
func BuildModel(name string, n int, w0 float64, rng *xrand.Source) (*nbody.System, error) {
	switch name {
	case "plummer":
		return model.Plummer(n, rng), nil
	case "king":
		return model.King(n, w0, rng)
	case "disk":
		return model.Disk(model.DefaultKuiperDisk(n), rng), nil
	case "bhbinary":
		return model.PlummerWithBlackHoles(n, 0.005, 0.3, rng), nil
	case "coldsphere":
		return model.ColdSphere(n, 1.5, rng), nil
	}
	return nil, fmt.Errorf("scenario: unknown model %q", name)
}

// Cell is one expanded series of the matrix: the unit of execution.
type Cell struct {
	Label string
	// Model kinds.
	Machine perfmodel.Machine
	Soft    units.SofteningKind
	Curve   string // "trace" or "model"
	// Cosim kind.
	Algo  string
	NIC   simnet.NIC
	Host  perfmodel.HostProfile
	Sweep []CosimCell
}

// cells expands a spec whose machines are valid into its series.
func (s *Spec) cells() []Cell {
	var cells []Cell
	if s.Kind == "cosim" {
		for _, m := range s.Machines {
			nic, _ := LookupNIC(m.NIC)
			host, _ := LookupHost(m.Host)
			cells = append(cells, Cell{
				Label: m.Label, Algo: m.Algo, NIC: nic, Host: host,
				Sweep: append([]CosimCell(nil), m.Sweep...),
			})
		}
		return cells
	}
	softs := s.Softening
	if len(softs) == 0 {
		softs = []string{"const"}
	}
	for _, m := range s.Machines {
		mm, _ := m.Build()
		curve := m.Curve
		if curve == "" {
			curve = "trace"
		}
		for _, sn := range softs {
			kind, _ := LookupSoftening(sn)
			cells = append(cells, Cell{
				Label:   seriesLabel(m.Label, kind, len(softs) > 1),
				Machine: mm,
				Soft:    kind,
				Curve:   curve,
			})
		}
	}
	return cells
}

// seriesLabel composes the series label from the machine label and the
// softening choice: a lone softening axis uses the paper's softening
// notation, a lone machine axis uses the machine label, and a true
// cross-product joins both.
func seriesLabel(machine string, kind units.SofteningKind, multiSoft bool) string {
	if machine == "" {
		return kind.String()
	}
	if multiSoft {
		return fmt.Sprintf("%s, %s", machine, kind)
	}
	return machine
}
