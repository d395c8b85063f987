// Package tree implements the Barnes & Hut (1986) octree force algorithm
// with monopole and optional quadrupole moments, plus a shared-timestep
// leapfrog integrator. It is the comparison baseline of Section 5 of the
// paper, which weighs GRAPE-6 against treecodes on general-purpose
// machines (Gadget on the T3E, Warren et al. on ASCI Red): the treecode
// trades per-interaction cost O(N log N) against lower force accuracy and
// — without individual timesteps — a ~100× larger step count for
// collisional problems.
package tree

import (
	"fmt"
	"math"

	"grape6/internal/direct"
	"grape6/internal/vec"
)

// Config controls tree construction and force evaluation.
type Config struct {
	Theta      float64 // opening angle (0 = exact direct summation)
	Eps        float64 // Plummer softening
	LeafCap    int     // max particles per leaf cell
	Quadrupole bool    // include quadrupole terms in cell expansions
}

// DefaultConfig matches the typical production setting of the codes the
// paper cites.
func DefaultConfig(eps float64) Config {
	return Config{Theta: 0.6, Eps: eps, LeafCap: 8, Quadrupole: false}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Theta < 0 || c.Theta > 2 {
		return fmt.Errorf("tree: opening angle %v out of [0,2]", c.Theta)
	}
	if c.Eps < 0 {
		return fmt.Errorf("tree: negative softening %v", c.Eps)
	}
	if c.LeafCap < 1 {
		return fmt.Errorf("tree: leaf capacity %d < 1", c.LeafCap)
	}
	return nil
}

// node is one octree cell.
type node struct {
	center   vec.V3  // geometric cell centre
	half     float64 // half-width of the cube
	com      vec.V3  // centre of mass
	mass     float64
	quad     [6]float64 // traceless quadrupole: xx yy zz xy xz yz
	first, n int        // particle index range (leaves)
	children [8]int32   // node indices, -1 when absent
	leaf     bool
}

// Tree is an immutable octree over a particle snapshot.
type Tree struct {
	cfg   Config
	nodes []node
	// Particles in tree order.
	pos  []vec.V3
	mass []float64
	perm []int // tree order → original index
}

// Build constructs the octree over the given snapshot.
func Build(pos []vec.V3, mass []float64, cfg Config) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(pos) != len(mass) {
		return nil, fmt.Errorf("tree: %d positions vs %d masses", len(pos), len(mass))
	}
	t := &Tree{cfg: cfg}
	n := len(pos)
	t.pos = append([]vec.V3(nil), pos...)
	t.mass = append([]float64(nil), mass...)
	t.perm = make([]int, n)
	for i := range t.perm {
		t.perm[i] = i
	}
	if n == 0 {
		return t, nil
	}

	// Bounding cube.
	lo, hi := pos[0], pos[0]
	for _, p := range pos[1:] {
		lo = vec.New(math.Min(lo.X, p.X), math.Min(lo.Y, p.Y), math.Min(lo.Z, p.Z))
		hi = vec.New(math.Max(hi.X, p.X), math.Max(hi.Y, p.Y), math.Max(hi.Z, p.Z))
	}
	c := lo.Add(hi).Scale(0.5)
	half := math.Max(hi.X-lo.X, math.Max(hi.Y-lo.Y, hi.Z-lo.Z))/2 + 1e-12

	t.build(c, half, 0, n, 0)
	return t, nil
}

// build recursively constructs the subtree over t.pos[first:first+n] and
// returns the node index.
func (t *Tree) build(center vec.V3, half float64, first, n, depth int) int32 {
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{center: center, half: half, first: first, n: n})
	for k := range t.nodes[idx].children {
		t.nodes[idx].children[k] = -1
	}

	if n <= t.cfg.LeafCap || depth > 64 {
		t.nodes[idx].leaf = true
	} else {
		// Partition the range into octants in place.
		buckets := make([][]int, 8)
		bpos := make([][]vec.V3, 8)
		bmass := make([][]float64, 8)
		for i := first; i < first+n; i++ {
			o := octant(t.pos[i], center)
			buckets[o] = append(buckets[o], t.perm[i])
			bpos[o] = append(bpos[o], t.pos[i])
			bmass[o] = append(bmass[o], t.mass[i])
		}
		at := first
		starts := [8]int{}
		for o := 0; o < 8; o++ {
			starts[o] = at
			copy(t.perm[at:], buckets[o])
			copy(t.pos[at:], bpos[o])
			copy(t.mass[at:], bmass[o])
			at += len(buckets[o])
		}
		for o := 0; o < 8; o++ {
			cnt := len(buckets[o])
			if cnt == 0 {
				continue
			}
			ch := t.build(childCenter(center, half, o), half/2, starts[o], cnt, depth+1)
			t.nodes[idx].children[o] = ch
		}
	}

	// Moments (bottom-up: children already built).
	nd := &t.nodes[idx]
	var m float64
	var com vec.V3
	for i := first; i < first+n; i++ {
		m += t.mass[i]
		com = com.AddScaled(t.mass[i], t.pos[i])
	}
	if m > 0 {
		com = com.Scale(1 / m)
	}
	nd.mass = m
	nd.com = com
	if t.cfg.Quadrupole {
		var q [6]float64
		for i := first; i < first+n; i++ {
			d := t.pos[i].Sub(com)
			r2 := d.Norm2()
			w := t.mass[i]
			q[0] += w * (3*d.X*d.X - r2)
			q[1] += w * (3*d.Y*d.Y - r2)
			q[2] += w * (3*d.Z*d.Z - r2)
			q[3] += w * 3 * d.X * d.Y
			q[4] += w * 3 * d.X * d.Z
			q[5] += w * 3 * d.Y * d.Z
		}
		nd.quad = q
	}
	return idx
}

func octant(p, c vec.V3) int {
	o := 0
	if p.X >= c.X {
		o |= 1
	}
	if p.Y >= c.Y {
		o |= 2
	}
	if p.Z >= c.Z {
		o |= 4
	}
	return o
}

func childCenter(c vec.V3, half float64, o int) vec.V3 {
	q := half / 2
	dx, dy, dz := -q, -q, -q
	if o&1 != 0 {
		dx = q
	}
	if o&2 != 0 {
		dy = q
	}
	if o&4 != 0 {
		dz = q
	}
	return vec.New(c.X+dx, c.Y+dy, c.Z+dz)
}

// NodeCount returns the number of tree cells.
func (t *Tree) NodeCount() int { return len(t.nodes) }

// Force is a tree force evaluation result.
type Force struct {
	Acc vec.V3
	Pot float64
	// Interactions counts cell and particle terms evaluated — the
	// treecode's cost measure (∝ log N per particle).
	Interactions int
}

// Accel evaluates the force at point p (excluding any particle closer than
// 1e-14, which removes the self-term when p is a particle position).
func (t *Tree) Accel(p vec.V3) Force {
	var f Force
	if len(t.nodes) == 0 {
		return f
	}
	t.walk(0, p, &f)
	return f
}

func (t *Tree) walk(ni int32, p vec.V3, f *Force) {
	nd := &t.nodes[ni]
	if nd.mass == 0 {
		return
	}
	d := nd.com.Sub(p)
	r2 := d.Norm2()

	// Barnes-Hut criterion: open if cellsize/distance > θ.
	size := 2 * nd.half
	open := nd.leaf || size*size > t.cfg.Theta*t.cfg.Theta*r2

	if !open {
		t.cellForce(nd, p, d, r2, f)
		return
	}
	if nd.leaf {
		e2 := t.cfg.Eps * t.cfg.Eps
		for i := nd.first; i < nd.first+nd.n; i++ {
			dd := t.pos[i].Sub(p)
			rr := dd.Norm2() + e2
			if rr <= 1e-28 {
				continue // self term
			}
			rinv := 1 / math.Sqrt(rr)
			mr3 := t.mass[i] * rinv * rinv * rinv
			f.Acc = f.Acc.AddScaled(mr3, dd)
			f.Pot -= t.mass[i] * rinv
			f.Interactions++
		}
		return
	}
	for _, ch := range nd.children {
		if ch >= 0 {
			t.walk(ch, p, f)
		}
	}
}

// cellForce applies the multipole expansion of a well-separated cell.
func (t *Tree) cellForce(nd *node, p, d vec.V3, r2 float64, f *Force) {
	e2 := t.cfg.Eps * t.cfg.Eps
	r2 += e2
	rinv := 1 / math.Sqrt(r2)
	rinv2 := rinv * rinv
	mr3 := nd.mass * rinv * rinv2
	f.Acc = f.Acc.AddScaled(mr3, d)
	f.Pot -= nd.mass * rinv
	f.Interactions++

	if t.cfg.Quadrupole {
		// x here points from the field point to the cell: the expansion
		// uses the vector from the cell to the point, so flip the sign.
		x := d.Neg()
		q := nd.quad
		qx := vec.New(
			q[0]*x.X+q[3]*x.Y+q[4]*x.Z,
			q[3]*x.X+q[1]*x.Y+q[5]*x.Z,
			q[4]*x.X+q[5]*x.Y+q[2]*x.Z,
		)
		xqx := x.Dot(qx)
		r5inv := rinv2 * rinv2 * rinv
		// φ_quad = -(x·Q·x)/(2 r^5); a_quad = -∇φ_quad
		//        = (Qx)/r^5 - (5/2)(x·Q·x) x/r^7.
		f.Pot -= xqx * r5inv / 2
		aq := qx.Scale(r5inv).Sub(x.Scale(2.5 * xqx * r5inv * rinv2))
		f.Acc = f.Acc.Add(aq)
		f.Interactions++
	}
}

// AccelAll evaluates forces at every position in ps, fanning out over the
// host's cores.
func (t *Tree) AccelAll(ps []vec.V3) []Force {
	out := make([]Force, len(ps))
	direct.ParallelFor(len(ps), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = t.Accel(ps[i])
		}
	})
	return out
}
