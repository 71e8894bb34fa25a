package experiments

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestGoldenQuickScaleRows locks the E1–E12 quick-scale output to the
// fixture captured immediately before the eda front-door redesign: the
// experiment rows must stay byte-identical, so API work can never
// silently change scientific results. It skips under -short; `make
// golden` (part of `make ci`) runs it. Regenerate the fixture (only after
// an intentional result change) with:
//
//	UPDATE_GOLDEN=1 go test ./internal/experiments -run TestGoldenQuickScaleRows
var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

func TestGoldenQuickScaleRows(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-scale sweep")
	}
	const fixture = "testdata/golden_quick_seed1.txt"
	r := Runner{Scale: ScaleQuick, Seed: 1}
	var b strings.Builder
	for _, exp := range r.All(context.Background()) {
		fmt.Fprintln(&b, exp.Render())
	}
	got := b.String()

	if updateGolden {
		if err := os.WriteFile(fixture, []byte(got), 0o644); err != nil {
			t.Fatalf("update fixture: %v", err)
		}
		t.Logf("fixture rewritten: %s", fixture)
		return
	}

	wantBytes, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(want, "\n")
	n := len(gotLines)
	if len(wantLines) < n {
		n = len(wantLines)
	}
	for i := 0; i < n; i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("golden mismatch at line %d:\n  want: %s\n  got:  %s",
				i+1, wantLines[i], gotLines[i])
		}
	}
	t.Fatalf("golden length mismatch: want %d lines, got %d", len(wantLines), len(gotLines))
}
