package grape6d

import "time"

// fillHist accumulates the batch-fill distribution: for every dispatch,
// the fraction of dispatched pipeline-load capacity that carried real
// i-particles (a 10-particle request on the 48-slot pipeline load fills
// 10/48 ≈ 0.21; a 60-particle request takes two loads and fills 60/96 =
// 0.625). Eight equal-width buckets over [0, 1], with exactly-full
// dispatches landing in the top bucket.
type fillHist struct {
	buckets    [8]int64
	dispatches int64
	sumFill    float64
}

func (h *fillHist) add(ni, loads, ibatch int) {
	if loads <= 0 || ibatch <= 0 {
		return
	}
	fill := float64(ni) / float64(loads*ibatch)
	idx := int(fill * float64(len(h.buckets)))
	if idx >= len(h.buckets) {
		idx = len(h.buckets) - 1
	}
	h.buckets[idx]++
	h.dispatches++
	h.sumFill += fill
}

// FillStats is the batch-fill histogram snapshot.
type FillStats struct {
	// Buckets[k] counts dispatches with fill in [k/8, (k+1)/8).
	Buckets    [8]int64
	Dispatches int64
	// MeanFill is the average fill fraction across dispatches (1.0 =
	// every dispatched pipeline load was completely packed).
	MeanFill float64
}

// ArrayStats describes one fleet slot.
type ArrayStats struct {
	Slot     int
	Resident string // name of the tenant whose j-image is loaded ("" none)
	Swaps    int64  // tenant j-image swap-ins
	Loads    int64  // pipeline loads dispatched
	Busy     time.Duration
}

// SessionStats describes one session.
type SessionStats struct {
	ID       int
	Name     string
	Requests int64 // force requests posted, one hardware dispatch each
	Cycles   int64 // model cycles charged (what a dedicated array reports)
	// ChipSeconds is Cycles converted through the cycle model — the
	// quantity quotas are debited in.
	ChipSeconds float64
	QueueDepth  int // requests waiting for a dispatcher (0 or 1)
	QueuedI     int // i-particles of that request
	Throttled   int64
}

// Stats is a scheduler-wide snapshot.
type Stats struct {
	Uptime   time.Duration
	Arrays   []ArrayStats
	Sessions []SessionStats
	Fill     FillStats
}

// Stats snapshots the scheduler's counters.
func (d *Scheduler) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.now()
	st := Stats{
		Uptime: now.Sub(d.start),
		Fill: FillStats{
			Buckets:    d.fill.buckets,
			Dispatches: d.fill.dispatches,
		},
	}
	if d.fill.dispatches > 0 {
		st.Fill.MeanFill = d.fill.sumFill / float64(d.fill.dispatches)
	}
	for _, sl := range d.slots {
		as := ArrayStats{
			Slot:  sl.idx,
			Swaps: sl.swaps,
			Loads: sl.loads,
			Busy:  time.Duration(sl.busyNanos),
		}
		if sl.resident != nil {
			as.Resident = sl.resident.name
		}
		st.Arrays = append(st.Arrays, as)
	}
	for _, s := range d.sessions {
		ss := SessionStats{
			ID:          s.id,
			Name:        s.name,
			Requests:    s.reqs,
			Cycles:      s.cycles,
			ChipSeconds: d.slots[0].arr.TimeFor(s.cycles),
			Throttled:   s.throttled,
		}
		if s.queued {
			ss.QueueDepth, ss.QueuedI = 1, len(s.reqIs)
		}
		st.Sessions = append(st.Sessions, ss)
	}
	return st
}
