package array

import (
	"testing"

	"declust/internal/disk"
)

// TestObserveDisksReplacesChain: a second ObserveDisks drops the first
// registration, and nil stops observation.
func TestObserveDisksReplacesChain(t *testing.T) {
	eng, a := testArray(t, nil)
	old := 0
	a.ObserveDisks(func(int, disk.Event) { old++ })
	current := 0
	a.ObserveDisks(func(int, disk.Event) { current++ })

	a.Read(0, func(uint64) {})
	eng.Run()
	if old != 0 {
		t.Errorf("replaced observer still fired %d times", old)
	}
	if current == 0 {
		t.Error("replacement observer never fired")
	}

	a.ObserveDisks(nil)
	mark := current
	a.Read(1, func(uint64) {})
	eng.Run()
	if current != mark {
		t.Error("ObserveDisks(nil) did not stop observation")
	}
}

// TestObserverChainSurvivesReplacement: a drive installed by Replace
// inherits the observer, tagged with its slot.
func TestObserverChainSurvivesReplacement(t *testing.T) {
	eng, a := testArray(t, nil)
	perSlot := map[int]int{}
	a.ObserveDisks(func(slot int, e disk.Event) { perSlot[slot]++ })

	if err := a.Fail(3); err != nil {
		t.Fatal(err)
	}
	if err := a.Replace(); err != nil {
		t.Fatal(err)
	}
	// Drive 3 is factory-fresh (user reads of its units are still served
	// from survivors until rebuilt), so probe it directly.
	a.Disk(3).Submit(&disk.Request{Start: 0, Count: 8})
	eng.Run()
	if perSlot[3] == 0 {
		t.Fatal("replacement drive's completions unobserved")
	}
}
