package testutil

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TrajectoryLine renders one golden evaluation-trajectory record: a key
// naming the run, then name=value fields in the given order. dump is
// hashed (SHA-256) into a trailing dump= field, so a table dump of any
// size costs one line.
func TrajectoryLine(key string, fields [][2]string, dump string) string {
	var sb strings.Builder
	sb.WriteString(key)
	for _, f := range fields {
		fmt.Fprintf(&sb, " %s=%s", f[0], f[1])
	}
	sum := sha256.Sum256([]byte(dump))
	sb.WriteString(" dump=")
	sb.WriteString(hex.EncodeToString(sum[:]))
	return sb.String()
}

// CheckTrajectory compares trajectory lines against the golden file at
// path. Every field must match exactly, except the fields named in
// atMost: those are integers that may fall but never rise (cost
// counters an optimization is allowed to reduce). When the file does
// not exist the lines are recorded and the test fails, so a re-record
// always shows up as a diff in review.
func CheckTrajectory(t testing.TB, path string, got []string, atMost ...string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s; re-run to compare", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	wl := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wl) != len(got) {
		t.Fatalf("%s: got %d records, want %d", path, len(got), len(wl))
	}
	loose := map[string]bool{}
	for _, f := range atMost {
		loose[f] = true
	}
	for i := range wl {
		if err := compareRecord(got[i], wl[i], loose); err != nil {
			t.Errorf("%s line %d: %v\n  got  %s\n  want %s", path, i+1, err, got[i], wl[i])
		}
	}
}

func compareRecord(got, want string, loose map[string]bool) error {
	gf, wf := strings.Fields(got), strings.Fields(want)
	if len(gf) != len(wf) || len(gf) == 0 || gf[0] != wf[0] {
		return fmt.Errorf("record shape differs")
	}
	for j := 1; j < len(gf); j++ {
		gn, gv, _ := strings.Cut(gf[j], "=")
		wn, wv, _ := strings.Cut(wf[j], "=")
		if gn != wn {
			return fmt.Errorf("field %d is %s, want %s", j, gn, wn)
		}
		if gv == wv {
			continue
		}
		if loose[gn] {
			g, err1 := strconv.Atoi(gv)
			w, err2 := strconv.Atoi(wv)
			if err1 == nil && err2 == nil && g <= w {
				continue
			}
			return fmt.Errorf("%s=%s rose above the recorded %s", gn, gv, wv)
		}
		return fmt.Errorf("%s=%s, want %s", gn, gv, wv)
	}
	return nil
}
