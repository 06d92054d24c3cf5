package switchsim

import "testing"

// parityProgram prunes entries whose first value is odd and counts the
// entries it processed.
type parityProgram struct{ calls int }

func (p *parityProgram) Profile() Profile { return Profile{Name: "parity", Stages: 1} }
func (p *parityProgram) Reset()           {}
func (p *parityProgram) Process(vals []uint64) Decision {
	p.calls++
	if vals[0]%2 == 1 {
		return Prune
	}
	return Forward
}

// streamChunk sends one chunk of n entries (values 0, 3, 6, …) of flow
// through the pipeline the way an execution does — the chunk hook, then
// the entries — and returns how many were pruned.
func streamChunk(pl *Pipeline, flow uint32, n int) (pruned int) {
	pl.Chunk(flow)
	for i := 0; i < n; i++ {
		if pl.Process(flow, []uint64{uint64(i * 3)}) == Prune {
			pruned++
		}
	}
	return pruned
}

// TestFailedPipelineForwardsEverything: a dead switch stops pruning —
// every entry forwards (the §7.2 conservative behaviour) — and rejects
// control-plane installs until restored.
func TestFailedPipelineForwardsEverything(t *testing.T) {
	pl, err := NewPipeline(Tofino())
	if err != nil {
		t.Fatal(err)
	}
	p := &parityProgram{}
	if err := pl.Install(1, p); err != nil {
		t.Fatal(err)
	}
	if streamChunk(pl, 1, 64) == 0 {
		t.Fatal("healthy pipeline pruned nothing — test program broken")
	}

	pl.Fail()
	if !pl.Failed() {
		t.Fatal("Failed() false after Fail()")
	}
	if pruned := streamChunk(pl, 1, 64); pruned != 0 {
		t.Fatalf("dead switch pruned %d entries, want 0", pruned)
	}
	if err := pl.Install(2, &parityProgram{}); err == nil {
		t.Fatal("Install succeeded on a dead switch")
	}
	if err := pl.CanInstall(p.Profile()); err == nil {
		t.Fatal("CanInstall succeeded on a dead switch")
	}
}

// TestFaultInjectorKillsBetweenBatches: the injector sees a
// monotonically increasing chunk ordinal through the chunk hook and
// kills the switch exactly at the chosen boundary — decisions before the
// kill stand, the killed chunk and everything after forward.
func TestFaultInjectorKillsBetweenBatches(t *testing.T) {
	pl, err := NewPipeline(Tofino())
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Install(7, &parityProgram{}); err != nil {
		t.Fatal(err)
	}
	var seen []int
	pl.SetFaultInjector(func(flowID uint32, chunk int) bool {
		if flowID != 7 {
			t.Errorf("injector saw flow %d, want 7", flowID)
		}
		seen = append(seen, chunk)
		return chunk >= 2 // die between the 2nd and 3rd chunk
	})
	for i := 0; i < 4; i++ {
		pruned := streamChunk(pl, 7, 32)
		if i < 2 && pruned == 0 {
			t.Fatalf("chunk %d before the kill pruned nothing", i)
		}
		if i >= 2 && pruned != 0 {
			t.Fatalf("chunk %d after the kill still pruned %d entries", i, pruned)
		}
	}
	if !pl.Failed() {
		t.Fatal("injector fired but pipeline is not failed")
	}
	// Ordinals 0,1,2 were offered; after the kill the injector must not
	// be consulted again.
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 1 || seen[2] != 2 {
		t.Fatalf("injector saw ordinals %v, want [0 1 2]", seen)
	}
}

// TestFaultInjectorScopedToArmedFlow: chunks of other flows advance the
// shared ordinal but a kill triggered by one flow takes the whole switch
// down — the failure domain is the switch, not the flow.
func TestFaultInjectorScopedToArmedFlow(t *testing.T) {
	pl, err := NewPipeline(Tofino())
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Install(1, &parityProgram{}); err != nil {
		t.Fatal(err)
	}
	if err := pl.Install(2, &parityProgram{}); err != nil {
		t.Fatal(err)
	}
	pl.SetFaultInjector(func(flowID uint32, chunk int) bool { return flowID == 1 })
	streamChunk(pl, 2, 16) // not the armed flow: switch stays up
	if pl.Failed() {
		t.Fatal("injector killed the switch from an unarmed flow")
	}
	pl.Chunk(1)
	if !pl.Failed() {
		t.Fatal("armed flow did not kill the switch")
	}
	// Both flows now forward — the whole switch is dead.
	if pruned := streamChunk(pl, 2, 16); pruned != 0 {
		t.Fatalf("flow 2 pruned %d entries after switch death", pruned)
	}
}

// TestPipelineProcessBatchUnknownFlow: a chunk of a flow with no
// installed program passes through untouched, and its chunk hook is
// harmless without an injector.
func TestPipelineProcessBatchUnknownFlow(t *testing.T) {
	pl, err := NewPipeline(Tofino())
	if err != nil {
		t.Fatal(err)
	}
	if pruned := streamChunk(pl, 99, 8); pruned != 0 {
		t.Fatalf("unknown flow pruned %d entries, want 0", pruned)
	}
	if pl.Failed() {
		t.Fatal("chunk hook of an unknown flow failed the switch")
	}
}

// TestPipelineProcessBatchInstalledFlow: a chunk of an installed flow
// runs every entry through that flow's program.
func TestPipelineProcessBatchInstalledFlow(t *testing.T) {
	pl, err := NewPipeline(Tofino())
	if err != nil {
		t.Fatal(err)
	}
	p := &parityProgram{}
	if err := pl.Install(7, p); err != nil {
		t.Fatal(err)
	}
	streamChunk(pl, 7, 16)
	if p.calls != 16 {
		t.Fatalf("installed flow processed %d entries, want 16", p.calls)
	}
}
