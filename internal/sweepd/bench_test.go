package sweepd

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"wsncover/internal/sim"
)

// serviceMixSpecs are the service-mix benchmark campaigns: the base (2
// schemes x 8 spare counts x 2 hole counts, 32 cells of 16 16x16
// replicates) and its widened copy with the same seed and 4 more spare
// counts (48 cells, 16 of them new).
func serviceMixSpecs(seed int64) (base, widened sim.CampaignSpec) {
	base = sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR, sim.AR},
		Grids:      []sim.GridSize{{Cols: 16, Rows: 16}},
		Spares:     []int{10, 25, 40, 55, 70, 100, 150, 200},
		Holes:      []int{1, 3},
		Workloads:  []sim.WorkloadSpec{{Kind: sim.WorkloadHoles}},
		Replicates: 16,
		BaseSeed:   seed,
		Workers:    1,
	}
	widened = base
	widened.Spares = []int{10, 25, 40, 55, 70, 100, 150, 200, 300, 400, 500, 600}
	return base, widened
}

// BenchmarkSweepdWidened times the widened service-mix campaign from
// submission to installed manifest on a fresh store: base-stored first
// runs the base campaign there, untimed, so only the 16 new cells are
// computed; cold runs all 48.
func BenchmarkSweepdWidened(b *testing.B) {
	base, widened := serviceMixSpecs(1000)
	for _, tc := range []struct {
		name       string
		storedBase bool
	}{{"base-stored", true}, {"cold", false}} {
		b.Run(tc.name, func(b *testing.B) {
			root := b.TempDir()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				store, err := OpenStore(filepath.Join(root, fmt.Sprint(i)))
				if err != nil {
					b.Fatal(err)
				}
				d, err := New(Options{Store: store})
				if err != nil {
					b.Fatal(err)
				}
				if tc.storedBase {
					benchCampaign(b, d, base)
				}
				b.StartTimer()
				benchCampaign(b, d, widened)
				b.StopTimer()
				d.Drain()
			}
		})
	}
}

// benchCampaign submits spec, waits for it, and fails unless it
// completed.
func benchCampaign(b *testing.B, d *Daemon, spec sim.CampaignSpec) {
	body, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	v, created, err := d.Submit(body, "bench")
	if err != nil || !created {
		b.Fatalf("Submit = %+v, created %v, %v", v, created, err)
	}
	if !d.Wait(context.Background(), v.ID) {
		b.Fatal("campaign never finished")
	}
	if v, _ = d.Campaign(v.ID); v.Status != StatusCompleted {
		b.Fatalf("campaign %s (%s), want completed", v.Status, v.Error)
	}
}
