package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
)

// openFiles counts this process's open file descriptors, or returns -1
// where /proc/self/fd does not exist.
func openFiles() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(fds)
}

// TestTraceFailuresReturn: a failing trace subcommand returns 1 with the
// error on stderr and nothing on stdout, so main's defers run, and a
// failed replay closes every trace file it opened.
func TestTraceFailuresReturn(t *testing.T) {
	small := []string{"-scale", "32", "-accesses", "1000"}

	// One trace file per core, the last one malformed, so the replay
	// has opened every other file when it fails.
	replayDir := t.TempDir()
	for i := 0; i < config.TableI(32).Cores-1; i++ {
		f, err := os.Create(filepath.Join(replayDir, fmt.Sprintf("t%02d.ztr", i)))
		if err != nil {
			t.Fatal(err)
		}
		w, err := trace.NewWriter(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(replayDir, "z.ztr"), []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, wantErr string
		args          []string
	}{
		{"info on a missing file", "no such file", []string{"-info", filepath.Join(t.TempDir(), "missing.ztr")}},
		{"replay of a malformed file", "bad magic", []string{"-replay", replayDir}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := openFiles()
			code, stdout, stderr := runCaptured(t, func() int { return traceCmd(append(small, tc.args...)) })
			if code != 1 {
				t.Errorf("exit code %d, want 1", code)
			}
			if stdout != "" {
				t.Errorf("stdout = %q, want nothing", stdout)
			}
			if !strings.HasPrefix(stderr, "trace: ") || !strings.Contains(stderr, tc.wantErr) {
				t.Errorf("stderr = %q, want a trace error naming %q", stderr, tc.wantErr)
			}
			if after := openFiles(); after != before {
				t.Errorf("%d files open after the command, %d before", after, before)
			}
		})
	}
}
