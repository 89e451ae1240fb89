package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenCampaignHash pins, for each EngineVersion, the SHA-256 of the
// golden campaign's manifest bytes. Version 1 is what the pre-SoA
// (pointer-per-node, map-backed controller) substrate produced; the
// storage rewrite reproduced it exactly. Unlike the in-process
// differential tests, this table crosses refactor boundaries, so
// "byte-identical to the previous substrate" is checkable long after the
// old code is gone. A change that moves a result adds a row and bumps
// EngineVersion (justified in its change log), so stored cells of the
// older engine stop being served; a row is never edited. A bump without
// a row fails to compile.
//
// The hashes cover amd64/linux with the repo's pinned Go toolchain; the
// FNV/SplitMix RNG and float64 arithmetic used by trials are
// deterministic across conforming platforms, so a mismatch means a
// semantics change, not an environment difference.
//
// Version 1's row was re-pinned once without any trial result moving:
// spec #2 sets no damage dimension, and its default echoes as
// "workloads":[{"kind":"holes"}] since the "failures" enum was folded
// into workloads (it echoed as "failures":["holes"] before). The value
// is what the earlier code gives for the same three specs with spec
// #2's workloads spelled out.
var goldenCampaignHash = [...]string{
	1: "d9c01013de97d42d12d2ccb6b7d5e0c29b26bb0a8d4e15d9eb02305395f4a741",
}

// goldenCampaignSpecs spans the axes the byte-identity contract promises:
// schemes x grids x workloads (legacy, adversarial, composed) x runners,
// with spare droughts and claim expiry in the mix.
func goldenCampaignSpecs() []CampaignSpec {
	return []CampaignSpec{
		{
			Schemes: []SchemeKind{SR, SRShortcut, AR},
			Grids:   []GridSize{{8, 8}, {9, 9}}, // cycle and dual path
			Spares:  []int{4, 20},
			Holes:   []int{1, 3},
			Workloads: []WorkloadSpec{
				{Kind: WorkloadHoles},
				{Kind: WorkloadJam},
				{Kind: WorkloadChurn, Every: 3, Waves: 2},
				{Kind: WorkloadDepletion, Budget: 20},
			},
			Replicates: 2,
			BaseSeed:   404,
		},
		{
			// Async runner alongside sync (SR only), plus a spare drought
			// so exhausted walks are in the golden image too.
			Schemes:    []SchemeKind{SR},
			Grids:      []GridSize{{8, 8}},
			Spares:     []int{0, 10},
			Runners:    []RunnerKind{RunSync, RunAsync},
			Replicates: 3,
			BaseSeed:   505,
		},
		{
			// The adversarial zoo: adaptive jamming, byzantine monitors
			// (claim expiry), lossy radio, resupply, and a composed phase
			// sequence.
			Schemes: []SchemeKind{SR},
			Grids:   []GridSize{{9, 9}},
			Spares:  []int{12},
			Workloads: []WorkloadSpec{
				{Kind: WorkloadMover, Every: 4, Waves: 2},
				{Kind: WorkloadByzantine, Frac: 0.2, Prob: 0.5, Count: 2},
				{Kind: WorkloadLossy, Loss: 0.2},
				{Kind: WorkloadResupply, Holes: 3, Batch: 5, At: 4},
				{Kind: WorkloadSequence, Every: 6, Children: []WorkloadSpec{
					{Kind: WorkloadJam},
					{Kind: WorkloadChurn, Every: 2, Waves: 2},
				}},
			},
			Replicates: 2,
			BaseSeed:   606,
		},
	}
}

// TestGoldenCampaignManifestHash is the cross-PR anchor of the SoA
// rewrite's "no observable change" contract. It runs the golden campaign
// pooled and fresh at workers {1,4}, requires all four byte-identical,
// and checks the shared image against the pinned pre-refactor hash.
func TestGoldenCampaignManifestHash(t *testing.T) {
	h := sha256.New()
	for i, spec := range goldenCampaignSpecs() {
		ref := pooledManifestBytes(t, spec, false, 1)
		for _, workers := range []int{4} {
			if got := pooledManifestBytes(t, spec, false, workers); !bytes.Equal(got, ref) {
				t.Errorf("spec %d: pooled manifest differs at workers=%d", i, workers)
			}
		}
		for _, workers := range []int{1, 4} {
			if got := pooledManifestBytes(t, spec, true, workers); !bytes.Equal(got, ref) {
				t.Errorf("spec %d: fresh manifest differs from pooled at workers=%d", i, workers)
			}
		}
		h.Write(ref)
	}
	sum := hex.EncodeToString(h.Sum(nil))
	if want := goldenCampaignHash[EngineVersion]; sum != want {
		t.Errorf("golden campaign hash %s, want engine %d's %s", sum, EngineVersion, want)
	}
}

// goldenWorkloadFormsHash pins, per EngineVersion, the SHA-256 of the
// workload-forms campaigns' manifests: every kind at top level and in
// its composed form (inside overlay, in sequences, nested, and drawn by
// random). goldenCampaignHash composes only sequence[jam, churn]; this
// table covers the composed paths of every other kind. Rows follow the
// goldenCampaignHash rules: never edited, added with an EngineVersion
// bump.
var goldenWorkloadFormsHash = [...]string{
	1: "35232e770fa6480db95ca990f5ecf12eef1f950d1ee38af13f31fa5fa27cdf4e",
}

// goldenWorkloadFormsSpecs runs the SR family, AR and the async runner,
// each over the kinds its trials accept, on a cycle (8x8) and a dual
// path (9x9) grid.
func goldenWorkloadFormsSpecs() []CampaignSpec {
	atoms := []WorkloadSpec{
		{Kind: WorkloadHoles, Holes: 2},
		{Kind: WorkloadJam},
		{Kind: WorkloadChurn, Every: 3, Waves: 2},
		{Kind: WorkloadDepletion, Budget: 15},
		{Kind: WorkloadMover, Every: 4, Waves: 2},
		{Kind: WorkloadResupply, Holes: 3, Batch: 3, At: 4},
	}
	srOnly := []WorkloadSpec{
		{Kind: WorkloadByzantine, Frac: 0.2, Prob: 0.5},
		{Kind: WorkloadLossy, Loss: 0.2},
	}
	randoms := func() []WorkloadSpec {
		var ws []WorkloadSpec
		for pick := int64(1); pick <= 12; pick++ {
			ws = append(ws, WorkloadSpec{Kind: WorkloadRandom, Pick: pick, Count: 1 + int(pick%4)})
		}
		return ws
	}
	compose := func(kind string, every int, children ...WorkloadSpec) WorkloadSpec {
		return WorkloadSpec{Kind: kind, Every: every, Children: children}
	}

	sr := append(append([]WorkloadSpec{}, atoms...), srOnly...)
	sr = append(sr,
		compose(WorkloadOverlay, 0, atoms[0], atoms[1], atoms[2], atoms[3]),
		compose(WorkloadOverlay, 0, atoms[4], atoms[5], srOnly[0], srOnly[1]),
		compose(WorkloadSequence, 4, atoms[0], atoms[3], srOnly[0]),
		compose(WorkloadSequence, 0, srOnly[1], atoms[5], atoms[4], atoms[1]),
		compose(WorkloadOverlay, 0,
			compose(WorkloadSequence, 3, atoms[1], atoms[0]),
			compose(WorkloadOverlay, 0, atoms[2], srOnly[1]),
			WorkloadSpec{Kind: WorkloadRandom, Pick: 99, Count: 3}),
	)
	sr = append(sr, randoms()...)

	ar := append([]WorkloadSpec{}, atoms...)
	ar = append(ar,
		compose(WorkloadOverlay, 0, atoms[0], atoms[1], atoms[2]),
		compose(WorkloadSequence, 5, atoms[3], atoms[4], atoms[5]),
		compose(WorkloadSequence, 0, atoms[2], atoms[0]),
		compose(WorkloadOverlay, 0,
			compose(WorkloadSequence, 2, atoms[4], atoms[3]),
			compose(WorkloadOverlay, 0, atoms[1], atoms[5])),
	)
	ar = append(ar, randoms()...)

	async := append([]WorkloadSpec{}, atoms[:5]...)
	async = append(async,
		compose(WorkloadOverlay, 0, atoms[0], atoms[4]),
		compose(WorkloadSequence, 3, atoms[3], atoms[1], atoms[2]),
	)
	async = append(async, randoms()...)

	return []CampaignSpec{
		{
			Schemes:    []SchemeKind{SR, SRShortcut},
			Grids:      []GridSize{{8, 8}, {9, 9}},
			Spares:     []int{5, 20},
			Workloads:  sr,
			Replicates: 2,
			BaseSeed:   707,
		},
		{
			Schemes:    []SchemeKind{AR},
			Grids:      []GridSize{{8, 8}, {9, 9}},
			Spares:     []int{5, 20},
			Workloads:  ar,
			Replicates: 2,
			BaseSeed:   808,
		},
		{
			Schemes:    []SchemeKind{SR},
			Grids:      []GridSize{{8, 8}},
			Spares:     []int{12},
			Workloads:  async,
			Runners:    []RunnerKind{RunAsync},
			Replicates: 2,
			BaseSeed:   909,
		},
	}
}

// TestGoldenWorkloadForms pins every workload kind's standalone and
// composed damage timelines across refactors of the workload engine.
func TestGoldenWorkloadForms(t *testing.T) {
	h := sha256.New()
	for _, spec := range goldenWorkloadFormsSpecs() {
		h.Write(campaignManifestBytes(t, spec, 2))
	}
	sum := hex.EncodeToString(h.Sum(nil))
	if want := goldenWorkloadFormsHash[EngineVersion]; sum != want {
		t.Errorf("workload forms hash %s, want engine %d's %s", sum, EngineVersion, want)
	}
}
