package ctrlplane

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mind/internal/sim"
)

// The single-rack cases place onto one rack's blades (racks = 1).

func TestPlaceTenantsLeastLoaded(t *testing.T) {
	tenants := []TenantSpec{
		{Name: "a", Footprint: 100, Active: 40},
		{Name: "b", Footprint: 100, Active: 30},
		{Name: "c", Footprint: 100, Active: 20},
	}
	ps, err := PlaceTenantsPod(tenants, 1, 2, 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	// a → blade 0 (tie, lowest index), b → blade 1 (empty), c → blade 1
	// (30 < 40).
	want := []int{0, 1, 1}
	for i, p := range ps {
		if p.Spans() || p.Shares[0].Blade != want[i] {
			t.Errorf("tenant %s placed %+v, want whole on blade %d", p.Spec.Name, p.Shares, want[i])
		}
	}
}

func TestPlaceTenantsOvercommitGates(t *testing.T) {
	// Hot-set gate: ΣActive must fit raw capacity.
	_, err := PlaceTenantsPod([]TenantSpec{
		{Name: "a", Footprint: 50, Active: 60},
		{Name: "b", Footprint: 50, Active: 50},
	}, 1, 2, 100, 4)
	if err == nil || !strings.Contains(err.Error(), "tenant b rejected") {
		t.Errorf("want hot-set rejection of b, got %v", err)
	}
	// Overcommit gate: ΣFootprint may exceed capacity up to the factor.
	ps, err := PlaceTenantsPod([]TenantSpec{
		{Name: "a", Footprint: 150, Active: 40},
		{Name: "b", Footprint: 40, Active: 40},
	}, 1, 2, 100, 2)
	if err != nil || len(ps) != 2 {
		t.Errorf("2x overcommit should admit 190 footprint on 100 capacity: %v", err)
	}
	_, err = PlaceTenantsPod([]TenantSpec{
		{Name: "a", Footprint: 150, Active: 40},
		{Name: "b", Footprint: 60, Active: 40},
	}, 1, 2, 100, 2)
	if err == nil || !strings.Contains(err.Error(), "tenant b rejected") {
		t.Errorf("want overcommit rejection of b, got %v", err)
	}
}

func TestPlaceTenantsDeterministic(t *testing.T) {
	tenants := []TenantSpec{
		{Name: "a", Footprint: 10, Active: 10},
		{Name: "b", Footprint: 10, Active: 10},
		{Name: "c", Footprint: 10, Active: 10},
		{Name: "d", Footprint: 10, Active: 10},
	}
	p1, err1 := PlaceTenantsPod(tenants, 1, 3, 1000, 1)
	p2, err2 := PlaceTenantsPod(tenants, 1, 3, 1000, 1)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("placement not deterministic:\n%+v\nvs\n%+v", p1, p2)
	}
}

func TestTokenBucketThrottlesAboveRate(t *testing.T) {
	// 1000 req/s, depth 10: an aggressor arriving at 10x the rate over
	// one virtual second gets ~rate+depth admissions.
	b := NewTokenBucket(1000, 10)
	admitted := 0
	for i := 0; i < 10000; i++ {
		now := sim.Time(i) * sim.Time(sim.Second) / 10000 // 10k req over 1 s
		if b.Take(now) {
			admitted++
		}
	}
	if admitted < 1000 || admitted > 1015 {
		t.Errorf("admitted %d of 10000, want ~1010 (rate + burst)", admitted)
	}
}

func TestTokenBucketAdmitsAtRate(t *testing.T) {
	// A compliant tenant at half the contracted rate is never throttled.
	b := NewTokenBucket(1000, 10)
	for i := 0; i < 500; i++ {
		now := sim.Time(i) * sim.Time(sim.Second) / 500
		if !b.Take(now) {
			t.Fatalf("compliant tenant throttled at request %d", i)
		}
	}
}

func TestTokenBucketBurst(t *testing.T) {
	// The full depth is available instantly, then the bucket empties.
	b := NewTokenBucket(10, 5)
	for i := 0; i < 5; i++ {
		if !b.Take(0) {
			t.Fatalf("burst token %d denied", i)
		}
	}
	if b.Take(0) {
		t.Error("empty bucket admitted")
	}
	// After 100 ms at 10/s, one token is back.
	if !b.Take(sim.Time(100 * sim.Millisecond)) {
		t.Error("refilled token denied")
	}
	if b.Take(sim.Time(100 * sim.Millisecond)) {
		t.Error("second take at same instant admitted")
	}
}

func TestPlaceTenantsPodWholeAndSplit(t *testing.T) {
	tenants := []TenantSpec{
		{Name: "a", Footprint: 100, Active: 30, RatePerSec: 1000, Burst: 40},
		{Name: "b", Footprint: 100, Active: 30},
		{Name: "big", Footprint: 240, Active: 120, RatePerSec: 3000, Burst: 60},
	}
	ps, err := PlaceTenantsPod(tenants, 2, 2, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	// a → rack 0 (tie, lowest index), b → rack 1 (empty), big (120 active
	// vs 70 headroom per rack) must span both racks.
	if ps[0].Spans() || ps[0].Shares[0].Rack != 0 {
		t.Errorf("a placed %+v, want whole on rack 0", ps[0].Shares)
	}
	if ps[1].Spans() || ps[1].Shares[0].Rack != 1 {
		t.Errorf("b placed %+v, want whole on rack 1", ps[1].Shares)
	}
	if !ps[2].Spans() {
		t.Fatalf("big placed %+v, want a spanning placement", ps[2].Shares)
	}
	// Split shares conserve the tenant's totals and sum to share 1.
	var active, foot uint64
	var share float64
	for _, sh := range ps[2].Shares {
		active += sh.Active
		foot += sh.Footprint
		share += sh.Share
	}
	if active != 120 || foot != 240 {
		t.Errorf("split conserves active/footprint: got %d/%d, want 120/240", active, foot)
	}
	if share < 0.999 || share > 1.001 {
		t.Errorf("shares sum to %v, want 1", share)
	}
	// The split bucket rates sum to the contract.
	var rate float64
	for i := range ps[2].Shares {
		b := ps[2].Bucket(i)
		rate += b.rate
	}
	if rate < 2999 || rate > 3001 {
		t.Errorf("split bucket rates sum to %v, want 3000", rate)
	}
}

func TestPlaceTenantsPodGates(t *testing.T) {
	// Pod-wide hot-set exhaustion: 2 racks × 100 active capacity cannot
	// admit 250 active bytes.
	_, err := PlaceTenantsPod([]TenantSpec{
		{Name: "huge", Footprint: 250, Active: 250},
	}, 2, 1, 100, 4)
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Errorf("want pod rejection, got %v", err)
	}
	// Footprint overcommit gate binds per rack even with active headroom.
	_, err = PlaceTenantsPod([]TenantSpec{
		{Name: "thin", Footprint: 500, Active: 10},
	}, 2, 1, 100, 2) // limit 200/rack, 400 pod-wide < 500
	if err == nil {
		t.Error("want footprint rejection, got nil")
	}
	// Degenerate shapes error out rather than panic.
	if _, err := PlaceTenantsPod(nil, 0, 1, 100, 2); err == nil {
		t.Error("zero racks must error")
	}
	if _, err := PlaceTenantsPod(nil, 1, 0, 100, 2); err == nil {
		t.Error("zero blades must error")
	}
}

func TestPlaceTenantsPodDeterministic(t *testing.T) {
	tenants := []TenantSpec{
		{Name: "a", Footprint: 90, Active: 45},
		{Name: "b", Footprint: 80, Active: 40},
		{Name: "big", Footprint: 240, Active: 120},
		{Name: "c", Footprint: 60, Active: 30},
	}
	run := func() string {
		ps, err := PlaceTenantsPod(tenants, 3, 2, 100, 3)
		if err != nil {
			t.Fatal(err)
		}
		s := ""
		for _, p := range ps {
			for _, sh := range p.Shares {
				s += fmt.Sprintf("%s:r%db%d:%d/%d;", p.Spec.Name, sh.Rack, sh.Blade, sh.Active, sh.Footprint)
			}
		}
		return s
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("placement not deterministic:\n%s\nvs\n%s", got, first)
		}
	}
}
