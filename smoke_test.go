package xlp

import (
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestCommandSmoke runs every cmd/ binary and examples/ program end to
// end with cheap arguments. It guards the parts of the repo that unit
// tests don't compile — main functions, flag wiring, embedded corpus
// paths — and is skipped under -short.
func TestCommandSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("command smoke test is slow; skipped with -short")
	}
	runs := [][]string{
		{"./cmd/xlp", "version"},
		{"./cmd/xlp", "gen", "-shape", "mixed", "-seed", "1", "-meta"},
		{"./cmd/xlp", "gen", "-shape", "flho", "-seed", "2"},
		{"./cmd/xlp", "difftest", "-n", "3", "-seed", "1"},
		{"./cmd/xlp", "lint", "internal/corpus/programs/qsort.pl"},
		{"./cmd/xlp", "groundness", "internal/corpus/programs/qsort.pl"},
		{"./cmd/xlp", "groundness", "-bench", "qsort"},
		{"./cmd/xlp", "strictness", "-bench", "quicksort"},
		{"./cmd/experiments", "-table", "1"},
	}
	for _, d := range []string{"dataflow", "depthk", "groundness", "quickstart", "strictness"} {
		runs = append(runs, []string{"./examples/" + d})
	}
	for _, r := range runs {
		r := r
		t.Run(strings.Join(r, " "), func(t *testing.T) {
			t.Parallel()
			args := append([]string{"run"}, r...)
			out, err := exec.Command("go", args...).CombinedOutput()
			if err != nil {
				t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
			}
		})
	}
}

// TestDaemonSmoke boots cmd/xlpd on a private port, waits for the HTTP
// surface to come up, exercises one analyze round trip plus the stats
// endpoint, and shuts the daemon down with an interrupt.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon smoke test is slow; skipped with -short")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	// Build and exec the binary directly: signaling a `go run` wrapper
	// would not reliably reach the daemon for the graceful-shutdown leg.
	bin := t.TempDir() + "/xlpd"
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/xlpd").CombinedOutput(); err != nil {
		t.Fatalf("build xlpd: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-addr", addr)
	var sb strings.Builder
	cmd.Stdout, cmd.Stderr = &sb, &sb
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	defer func() {
		cmd.Process.Signal(os.Interrupt)
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("xlpd exited uncleanly after interrupt: %v\n%s", err, sb.String())
			}
		case <-time.After(15 * time.Second):
			cmd.Process.Kill()
			t.Errorf("xlpd did not exit after interrupt; killed\n%s", sb.String())
		}
	}()

	base := "http://" + addr
	client := &http.Client{Timeout: 2 * time.Second}
	var up bool
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if resp, err := client.Get(base + "/v1/stats"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				up = true
				break
			}
		}
		select {
		case err := <-done:
			t.Fatalf("xlpd exited before serving: %v\n%s", err, sb.String())
		case <-time.After(100 * time.Millisecond):
		}
	}
	if !up {
		t.Fatalf("xlpd did not come up on %s\n%s", addr, sb.String())
	}

	body := strings.NewReader(`{"source": "p(a).\np(b)."}`)
	resp, err := client.Post(base+"/v1/analyze/groundness", "application/json", body)
	if err != nil {
		t.Fatalf("analyze request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: status %d", resp.StatusCode)
	}
	for _, path := range []string{"/v1/stats", "/metrics"} {
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}
