package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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
			b.ReportAllocs()
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

// BenchmarkSweepdHit times one cache hit of the service-mix base
// campaign through Daemon.Handler(): the submission the store answers,
// then the manifest fetch. The base campaign runs once, untimed, so
// every iteration is a hit on a verified, memoized manifest.
func BenchmarkSweepdHit(b *testing.B) {
	base, _ := serviceMixSpecs(1000)
	store, err := OpenStore(filepath.Join(b.TempDir(), "store"))
	if err != nil {
		b.Fatal(err)
	}
	d, err := New(Options{Store: store})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Drain()
	benchCampaign(b, d, base)
	body, err := json.Marshal(base)
	if err != nil {
		b.Fatal(err)
	}
	h := d.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest("POST", "/api/v1/campaigns?name=hit", bytes.NewReader(body)))
		var v View
		if err := json.Unmarshal(rw.Body.Bytes(), &v); err != nil || rw.Code != http.StatusOK || v.Status != StatusCached {
			b.Fatalf("submit: HTTP %d, %+v, %v; want a cache hit", rw.Code, v, err)
		}
		rw = httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest("GET", v.ManifestURL, nil))
		if rw.Code != http.StatusOK || rw.Body.Len() == 0 {
			b.Fatalf("manifest fetch: HTTP %d", rw.Code)
		}
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
