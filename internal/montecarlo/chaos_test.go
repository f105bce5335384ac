package montecarlo

import (
	"context"
	"reflect"
	"testing"
	"time"

	"accelwall/internal/faultinject"
	"accelwall/internal/leakcheck"
)

// sameOutput compares two results ignoring Config, which records the
// (irrelevant to output) worker count of the run that produced it.
func sameOutput(a, b *Result) bool {
	ca, cb := *a, *b
	ca.Config, cb.Config = Config{}, Config{}
	return reflect.DeepEqual(ca, cb)
}

// TestChaosReplicatePool injects every fault mode at the replicate seam
// across pool widths: panicking and erroring replicates must degrade into
// the Failed count (never kill the pool or deadlock it), delays must not
// change results at all, and the pool must recover fully once the
// injector is removed.
func TestChaosReplicatePool(t *testing.T) {
	ref, err := runFresh(context.Background(), testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	modes := []faultinject.Mode{faultinject.ModeError, faultinject.ModePanic, faultinject.ModeDelay}
	for _, workers := range []int{1, 4, 8} {
		for _, mode := range modes {
			t.Run(mode.String()+"/w"+string(rune('0'+workers)), func(t *testing.T) {
				leakcheck.Check(t)
				inj := faultinject.New(23).Set(SiteReplicate, faultinject.Rule{
					Mode: mode, P: 0.2, Delay: 100 * time.Microsecond,
				})
				faultinject.Enable(inj)
				defer faultinject.Disable()

				res, err := runFresh(context.Background(), testConfig(workers))
				if err != nil {
					t.Fatalf("chaos run errored (pool should absorb replicate faults): %v", err)
				}
				fired := int(inj.Fired(SiteReplicate))
				if fired == 0 {
					t.Fatalf("injector never fired over %d hits", inj.Hits(SiteReplicate))
				}
				switch mode {
				case faultinject.ModeDelay:
					// Delays must be invisible in the output.
					if !sameOutput(res, ref) {
						t.Fatal("delay injection changed the reduced result")
					}
				default:
					// Every fired fault is exactly one failed replicate; the
					// P-based decision depends only on the hit index, so the
					// count is schedule-invariant even though the failing
					// replicate identities are not.
					if res.Failed != fired {
						t.Fatalf("Failed = %d, injector fired %d", res.Failed, fired)
					}
					if res.Replicates+res.Failed != ref.Replicates+ref.Failed {
						t.Fatalf("replicate accounting broken: %d usable + %d failed", res.Replicates, res.Failed)
					}
				}

				faultinject.Disable()
				again, err := runFresh(context.Background(), testConfig(workers))
				if err != nil {
					t.Fatalf("post-chaos run failed: %v", err)
				}
				if !sameOutput(again, ref) {
					t.Fatal("post-chaos results diverged from reference")
				}
			})
		}
	}
}

// TestChaosAllReplicatesFail drives the failure path past the usable
// threshold: when injected faults kill more than half the replicates the
// run must error cleanly (no partial bands), not hang or panic through.
func TestChaosAllReplicatesFail(t *testing.T) {
	leakcheck.Check(t)
	faultinject.Enable(faultinject.New(1).Set(SiteReplicate, faultinject.Rule{
		Mode: faultinject.ModePanic, Every: 1,
	}))
	defer faultinject.Disable()
	res, err := runFresh(context.Background(), testConfig(4))
	if err == nil {
		t.Fatalf("run with every replicate panicking succeeded: %+v", res.Config)
	}
}
