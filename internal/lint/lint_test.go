package lint_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// TestAnalyzers runs each analyzer over its golden testdata: a
// `flagged` package where every violation carries a // want comment,
// and a `clean` package where any finding is a false positive.
func TestAnalyzers(t *testing.T) {
	cases := []struct {
		analyzer *lint.Analyzer
		dir      string
	}{
		{lint.SeqAtomic, "seqatomic"},
		{lint.NoAlloc, "noalloc"},
		{lint.UnsafeView, "unsafeview"},
		{lint.DigestFlow, "digestflow"},
		{lint.FsyncOrder, "fsyncorder"},
		{lint.BoundedInput, "boundedinput"},
		{lint.LockOrder, "lockorder"},
	}
	for _, tc := range cases {
		for _, sub := range []string{"flagged", "clean"} {
			t.Run(tc.analyzer.Name+"/"+sub, func(t *testing.T) {
				linttest.Run(t, filepath.Join("testdata", tc.dir, sub), tc.analyzer)
			})
		}
	}
	// lockorder's //repro:requires-lock check has goldens of its own,
	// under the lockheld name it had as a separate analyzer.
	for _, sub := range []string{"flagged", "clean"} {
		t.Run("lockheld/"+sub, func(t *testing.T) {
			linttest.Run(t, filepath.Join("testdata", "lockorder", "held", sub), lint.LockOrder)
		})
	}
	// A package whose only lock discipline is //repro:requires-lock: with
	// no class declared, lockorder flags the requirement itself.
	t.Run("lockorder/unclassed", func(t *testing.T) {
		linttest.Run(t, filepath.Join("testdata", "lockorder", "unclassed"), lint.LockOrder)
	})
}

// TestRepositoryClean is the regression gate in test form: the full
// suite over the whole module must report nothing.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and checks the whole module")
	}
	pkgs, err := lint.Load("", "repro/...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(pkgs, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
