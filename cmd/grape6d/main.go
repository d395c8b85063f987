// Command grape6d runs the multi-tenant GRAPE scheduler as a network
// daemon: many host programs attach sessions over net/rpc and share one
// emulated board fleet, the way the real GRAPE-6 installation
// time-shared its pipelines across users.
//
//	grape6d -listen :7646 -fleet 2 -boards 4
//
// Each force request is served on the goroutine of the RPC that makes
// it, first come, first served, on a free array of the fleet.
//
// With -smoke it instead runs the CI end-to-end scenario in-process on a
// fleet of -fleet small arrays: start a daemon, attach two sessions of
// different N, step both, snapshot one, restore it as a third session,
// detach, and verify every session's state hash against the same
// workloads run on dedicated arrays — the scheduler's bit-exactness
// contract, end to end over the wire.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"

	"grape6/internal/board"
	"grape6/internal/core"
	"grape6/internal/grape6d"
	"grape6/internal/model"
	"grape6/internal/xrand"
)

func main() {
	var (
		listen = flag.String("listen", ":7646", "address to serve RPC on")
		fleet  = flag.Int("fleet", 1, "number of board arrays in the shared fleet")
		boards = flag.Int("boards", 0, "boards per array (0 = production 4-board attachment)")
		chips  = flag.Int("chips", 0, "chips per module override (0 = production 4)")
		smoke  = flag.Bool("smoke", false, "run the in-process end-to-end smoke scenario and exit")
	)
	flag.Parse()

	hw := board.Default
	if *boards > 0 {
		hw.Boards = *boards
	}
	if *chips > 0 {
		hw.ChipsPerModule = *chips
	}

	if *smoke {
		if err := runSmoke(*fleet); err != nil {
			fmt.Fprintln(os.Stderr, "grape6d smoke:", err)
			os.Exit(1)
		}
		fmt.Println("grape6d smoke: OK")
		return
	}

	sv := grape6d.NewServer(grape6d.NewScheduler(grape6d.Config{Fleet: *fleet, HW: hw}))
	defer sv.Close()
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "grape6d:", err)
		os.Exit(1)
	}
	fmt.Printf("grape6d: fleet of %d × %d-board arrays on %s\n", *fleet, hw.Boards, ln.Addr())
	if err := sv.Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, "grape6d:", err)
		os.Exit(1)
	}
}

// smokeHW is a small fleet array so the scenario runs in CI seconds.
func smokeHW() board.Config {
	c := board.Default
	c.ChipsPerModule = 2
	c.ModulesPerBoard = 2
	c.Boards = 1 // 4 chips
	return c
}

// soloHash runs n particles (seed) for blocks block steps on a
// dedicated array and fingerprints the synchronized state.
func soloHash(hw board.Config, n int, seed uint64, eps float64, blocks int) (uint64, error) {
	sim, err := core.NewSimulator(model.Plummer(n, xrand.New(seed)), core.Config{
		Backend: core.Grape, Eps: eps, HW: &hw,
	})
	if err != nil {
		return 0, err
	}
	for k := 0; k < blocks; k++ {
		sim.Step()
	}
	return grape6d.SystemHash(sim.Synchronized()), nil
}

func runSmoke(fleet int) error {
	hw := smokeHW()
	eps := 1.0 / 64
	sv := grape6d.NewServer(grape6d.NewScheduler(grape6d.Config{Fleet: fleet, HW: hw}))
	defer sv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go sv.Serve(ln)

	cl, err := grape6d.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer cl.Close()

	// Two tenants of different N share the fleet.
	if _, err := cl.Attach(grape6d.AttachArgs{Name: "a", N: 128, Seed: 7}); err != nil {
		return err
	}
	if _, err := cl.Attach(grape6d.AttachArgs{Name: "b", N: 96, Seed: 11}); err != nil {
		return err
	}
	const blocks = 20
	for k := 0; k < blocks/2; k++ {
		if _, err := cl.Step("a", 2); err != nil {
			return err
		}
		if _, err := cl.Step("b", 2); err != nil {
			return err
		}
	}

	// Snapshot tenant a and restore it as a third session.
	snap, err := cl.Snapshot("a")
	if err != nil {
		return err
	}
	if _, err := cl.Restore("a2", snap.Data); err != nil {
		return err
	}
	const extra = 5
	if _, err := cl.Step("a2", extra); err != nil {
		return err
	}

	// Detach b; the fleet must keep serving the others.
	if err := cl.Detach("b"); err != nil {
		return err
	}
	if _, err := cl.Step("a", 1); err != nil {
		return err
	}

	// Every session must match the identical workload on a dedicated
	// array, bit for bit.
	wantA, err := soloHash(hw, 128, 7, eps, blocks+1)
	if err != nil {
		return err
	}
	gotA, err := cl.Hash("a")
	if err != nil {
		return err
	}
	if gotA.Hash != wantA {
		return fmt.Errorf("session a hash %#016x, dedicated run %#016x: multi-tenancy changed bits", gotA.Hash, wantA)
	}

	soloRestored, err := core.Restore(bytes.NewReader(snap.Data), core.Config{Backend: core.Grape, HW: &hw})
	if err != nil {
		return err
	}
	for k := 0; k < extra; k++ {
		soloRestored.Step()
	}
	wantA2 := grape6d.SystemHash(soloRestored.Synchronized())
	gotA2, err := cl.Hash("a2")
	if err != nil {
		return err
	}
	if gotA2.Hash != wantA2 {
		return fmt.Errorf("restored session hash %#016x, dedicated restore %#016x: snapshot round-trip changed bits", gotA2.Hash, wantA2)
	}

	st, err := cl.Stats()
	if err != nil {
		return err
	}
	var swaps int64
	for _, as := range st.Arrays {
		swaps += as.Swaps
	}
	fmt.Printf("grape6d smoke: %d sessions, %d dispatches, mean fill %.2f, %d swaps\n",
		len(st.Sessions), st.Fill.Dispatches, st.Fill.MeanFill, swaps)
	if len(st.Sessions) != 2 {
		return fmt.Errorf("stats show %d sessions after detach, want 2", len(st.Sessions))
	}
	if swaps < 2 {
		return fmt.Errorf("fleet of %d saw %d swaps across three tenants, want ≥ 2", fleet, swaps)
	}
	return nil
}
