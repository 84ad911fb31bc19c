package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// render serialises everything a workload generates for a seed: its
// documents and rules, and the first posts of every phase's callers with
// their expected actions.
func render(t *testing.T, name string, seed int64) string {
	t.Helper()
	w, err := newWorkload(name, seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(w.inputs())
	for _, phase := range []string{"warm", "closed", "open", "traced"} {
		for caller := 0; caller < 2; caller++ {
			src := w.source(phase, caller)
			for i := 0; i < 200; i++ {
				j, err := json.Marshal(src.next())
				if err != nil {
					t.Fatal(err)
				}
				b.Write(j)
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range []string{"carrental", "fanout", "journal"} {
		a, b := render(t, name, 7), render(t, name, 7)
		if a != b {
			t.Errorf("%s: seed 7 rendered different inputs on two calls", name)
		}
		if c := render(t, name, 8); c == a {
			t.Errorf("%s: seeds 7 and 8 rendered identical inputs", name)
		}
	}
}

// helper runs the benchmark in a child process (this test binary,
// re-executed) with the given arguments and a private TMPDIR.
func helper(t *testing.T, args ...string) (*exec.Cmd, *bufio.Scanner, string) {
	t.Helper()
	tmp := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperProcess$")
	cmd.Env = append(os.Environ(), "ECAPERF_HELPER="+strings.Join(args, " "), "TMPDIR="+tmp)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd, bufio.NewScanner(out), tmp
}

// TestHelperProcess is the child side of helper; it is a no-op otherwise.
func TestHelperProcess(t *testing.T) {
	args := os.Getenv("ECAPERF_HELPER")
	if args == "" {
		return
	}
	os.Args = append([]string{"ecaperf"}, strings.Fields(args)...)
	main()
}

// scan reads the child's stdout to the end, returning the serving
// addresses it announced and its last line.
func scan(sc *bufio.Scanner, serving chan<- string) (last string) {
	for sc.Scan() {
		line := sc.Text()
		if addr, ok := strings.CutPrefix(line, "# serving http://"); ok && serving != nil {
			serving <- addr
			serving = nil
		}
		last = line
	}
	if serving != nil {
		close(serving)
	}
	return last
}

// leftovers checks that nothing the child created survives it: its temp
// directory is empty, its listener refuses connections and its process
// is gone.
func leftovers(t *testing.T, cmd *exec.Cmd, tmp, addr string) {
	t.Helper()
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("left behind in TMPDIR: %s", filepath.Join(tmp, e.Name()))
	}
	if addr != "" {
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			t.Errorf("listener %s still accepts connections", addr)
		}
	}
	if err := syscall.Kill(cmd.Process.Pid, 0); err == nil {
		t.Errorf("process %d still exists", cmd.Process.Pid)
	}
}

// TestSecondSeedPassesReference runs every workload briefly on a seed not
// used while writing it; the outputs must match the reference and the
// run must leave nothing behind.
func TestSecondSeedPassesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	for _, name := range []string{"carrental", "fanout", "journal"} {
		t.Run(name, func(t *testing.T) {
			cmd, sc, tmp := helper(t, "--workload", name, "--seed", "424242", "--seconds", "2")
			serving := make(chan string, 1)
			last := scan(sc, serving)
			err := cmd.Wait()
			var res result
			if jerr := json.Unmarshal([]byte(last), &res); jerr != nil {
				t.Fatalf("last line is not a result: %q (%v)", last, jerr)
			}
			if err != nil || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("exit %v, result %+v", err, res)
			}
			leftovers(t, cmd, tmp, <-serving)
		})
	}
}

// TestTracedRunReportsEveryLayer runs the traced ledger briefly.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	spans := filepath.Join(t.TempDir(), "spans.json")
	cmd, sc, tmp := helper(t, "--workload", "fanout", "--seed", "5", "--seconds", "2", "--trace", "1", "--spans", spans)
	last := scan(sc, nil)
	if err := cmd.Wait(); err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("last line is not a result: %q (%v)", last, err)
	}
	for _, name := range perLayer {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("per-layer metric %s missing", name)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("got %d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	if _, err := os.Stat(spans); err != nil {
		t.Errorf("spans not written: %v", err)
	}
	leftovers(t, cmd, tmp, "")
}

// TestSignalMidRunLeavesNothing interrupts a durable run mid-load: the
// command must exit non-zero without a result, and leave no process,
// listener or temp directory.
func TestSignalMidRunLeavesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	for _, sig := range []syscall.Signal{syscall.SIGINT, syscall.SIGTERM} {
		t.Run(fmt.Sprint(sig), func(t *testing.T) {
			cmd, sc, tmp := helper(t, "--workload", "journal", "--seed", "3", "--seconds", "60")
			serving := make(chan string, 1)
			lastc := make(chan string, 1)
			go func() { lastc <- scan(sc, serving) }()
			addr, ok := <-serving
			if !ok {
				t.Fatal("the run never served")
			}
			time.Sleep(time.Second) // mid-load
			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			select {
			case last := <-lastc:
				if strings.HasPrefix(last, "{") {
					t.Errorf("interrupted run printed a result: %s", last)
				}
			case <-time.After(30 * time.Second):
				cmd.Process.Kill()
				t.Fatal("run did not stop within 30s of the signal")
			}
			if err := cmd.Wait(); err == nil {
				t.Error("interrupted run exited 0")
			}
			leftovers(t, cmd, tmp, addr)
		})
	}
}
