package experiments

// Cross-revision identity anchor: a sha256 of every panel's series at
// Tiny scale, compared against testdata/panels_tiny.golden. A change that
// is meant to keep simulated outputs bit-identical leaves this test green;
// one that is meant to move them regenerates the file and commits the
// diff, which names the panels that moved:
//
//	DUMP_PANELS=testdata/panels_tiny.golden go test -run TestDumpAllPanels ./internal/experiments

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const panelsGolden = "testdata/panels_tiny.golden"

func TestDumpAllPanels(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every panel at Tiny scale")
	}
	out := os.Getenv("DUMP_PANELS")
	var want map[string]string
	if out == "" {
		data, err := os.ReadFile(panelsGolden)
		if err != nil {
			t.Fatal(err)
		}
		// The first line records the toolchain that wrote the file. The
		// hashes pin float-derived bits, and another GOARCH may round
		// differently (arm64 fuses multiply-adds).
		header, body, _ := strings.Cut(string(data), "\n")
		if f := strings.Fields(header); len(f) != 3 || f[0] != "#" {
			t.Fatalf("%s: first line %q, want \"# <go version> <GOARCH>\"", panelsGolden, header)
		} else if f[2] != runtime.GOARCH {
			t.Skipf("%s was written on %s, this is %s", panelsGolden, f[2], runtime.GOARCH)
		}
		want = make(map[string]string)
		for _, l := range strings.Split(strings.TrimSpace(body), "\n") {
			name, hash, _ := strings.Cut(l, " ")
			want[name] = hash
		}
	}
	s := Tiny
	// POD_WORKERS selects the pod executor's worker count for the pod
	// panels; any value must yield the same hashes.
	if w := os.Getenv("POD_WORKERS"); w != "" {
		n, err := strconv.Atoi(w)
		if err != nil {
			t.Fatalf("POD_WORKERS=%q: %v", w, err)
		}
		s.PodWorkers = n
	}
	var lines []string
	one := func(name string, f *Figure, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		hashFig(h, f)
		lines = append(lines, fmt.Sprintf("%s %x", name, h.Sum(nil)))
	}
	many := func(name string, figs map[string]*Figure, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		keys := make([]string, 0, len(figs))
		for k := range figs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h := sha256.New()
			hashFig(h, figs[k])
			lines = append(lines, fmt.Sprintf("%s/%s %x", name, k, h.Sum(nil)))
		}
	}

	{
		figs, err := Fig5Left(s)
		many("fig5l", figs, err)
	}
	{
		figs, err := Fig5Center(s)
		many("fig5c", figs, err)
	}
	{
		figs, err := Fig5Right(s)
		many("fig5r", figs, err)
	}
	{
		figs, err := Fig6(s)
		many("fig6", figs, err)
	}
	{
		f, err := Fig7Left(s)
		one("fig7l", f, err)
	}
	{
		f, err := Fig7Center(s)
		one("fig7c", f, err)
	}
	{
		f, err := Fig7Right(s)
		one("fig7r", f, err)
	}
	{
		figs, err := Fig8Left(s)
		many("fig8l", figs, err)
	}
	{
		f, err := Fig8Center(s)
		one("fig8c", f, err)
	}
	{
		f, err := Fig8Right(s)
		one("fig8r", f, err)
	}
	{
		figs, err := Fig9Left(s)
		many("fig9l", figs, err)
	}
	{
		figs, err := Fig9Right(s)
		many("fig9r", figs, err)
	}
	{
		f, err := Fig10(s)
		one("fig10", f, err)
	}
	{
		f, err := FigPod(s)
		one("figpod", f, err)
	}
	{
		f, err := FigServe(s)
		one("figserve", f, err)
	}
	{
		f, err := FigServePod(s)
		one("figservepod", f, err)
	}
	{
		f, err := FigServeKill(s)
		one("figservekill", f, err)
	}

	sort.Strings(lines)
	if out != "" {
		data := fmt.Sprintf("# %s %s\n%s\n", runtime.Version(), runtime.GOARCH, strings.Join(lines, "\n"))
		if err := os.WriteFile(out, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d panel hashes to %s", len(lines), out)
		return
	}
	for _, l := range lines {
		name, hash, _ := strings.Cut(l, " ")
		if want[name] != hash {
			t.Errorf("panel %s: sha256 %s, golden %q", name, hash, want[name])
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("panel %s is in the golden but was not generated", name)
	}
	if t.Failed() {
		t.Logf("if the move is intended, regenerate: DUMP_PANELS=%s go test -run TestDumpAllPanels ./internal/experiments", panelsGolden)
	}
}
