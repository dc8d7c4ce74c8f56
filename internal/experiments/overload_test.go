package experiments

import "testing"

// An open loop well below saturation sheds nothing. Its one pacer admits
// every client's arrival at that arrival's instant, so no client falls
// behind the clock and then catches up in a burst that floods the queue.
func TestOverloadPointBelowSaturationShedsNothing(t *testing.T) {
	res, err := RunOverloadPoint(OverloadConfig{OperationCount: 4_000, Seed: 3}, 16_000)
	if err != nil {
		t.Fatal(err)
	}
	shed := res.ShedOverload + res.ShedDeadline + res.ShedReadOnly
	if res.Completed != 4_000 || shed != 0 || res.OtherErrors+res.Cancelled != 0 {
		t.Fatalf("at 16 k ops/s: %d of 4000 completed, %d shed (%d overload, %d deadline), %d other",
			res.Completed, shed, res.ShedOverload, res.ShedDeadline, res.OtherErrors+res.Cancelled)
	}
}
