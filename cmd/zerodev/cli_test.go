package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
)

// runCaptured runs one subcommand with os.Stdout and os.Stderr redirected
// to temporary files and returns its exit code and both outputs.
func runCaptured(t *testing.T, cmd func() int) (code int, stdout, stderr string) {
	t.Helper()
	outF, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outF, errF
	func() {
		defer func() { os.Stdout, os.Stderr = oldOut, oldErr }()
		code = cmd()
	}()
	read := func(f *os.File) string {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(f)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		return string(b)
	}
	return code, read(outF), read(errF)
}

// TestMalformedValuesRefused is the table of malformed CLI values that a
// lenient parser silently maps to another configuration: through a
// zero-value map lookup (policy, mode), a default branch (config) or an
// ignored scan error (ratio). It also holds the values that would size
// a directory past host memory (ratio), record a meaningless bench
// entry (workers) or disarm the bench gate (max-regress, where every
// comparison with NaN is false), an audit rate scale of NaN (every
// injection rate NaN, so nothing fires and the campaign reports clean),
// a negative check watchdog (silently no watchdog), an unknown
// experiment named after a valid one, and a -scale so large that the
// presets' L1 holds fewer blocks than ways (every simulation would die
// building its caches). Each must exit 2 naming the valid values, or
// for -scale the scale and the cache, with nothing on stdout, before
// any simulation or measurement runs.
func TestMalformedValuesRefused(t *testing.T) {
	small := []string{"-scale", "32", "-accesses", "1000"}
	single := func(args ...string) func() int {
		return func() int { return singleCmd(append(append(small, args...), "canneal")) }
	}
	compare := func(args ...string) func() int {
		return func() int {
			return compareCmd(context.Background(), append(append(append(small, "-workers", "1"), args...), "canneal"))
		}
	}
	bench := func(args ...string) func() int {
		return func() int {
			return benchCmd(context.Background(), append([]string{"-o", filepath.Join(t.TempDir(), "bench.json")}, args...))
		}
	}
	run := func(ids ...string) func() int {
		return func() int {
			return runCmd(context.Background(), append([]string{"-quick", "-scale", "64", "-accesses", "500", "-checkpoint", ""}, ids...))
		}
	}
	// The refusal names the scale and the first cache that cannot be
	// built at it: Table I's 32 KB 8-way L1 holds 4 blocks at 1/128.
	const tooLarge = "scale 128 has a 256-byte 8-way L1"
	for _, tc := range []struct {
		name  string
		cmd   func() int
		names string // the valid values the refusal must list
	}{
		{"single -policy fps", single("-policy", "fps"), "spillall, fpss, or fuseall"},
		{"single -mode epdd", single("-mode", "epdd"), "noninclusive, epd, or inclusive"},
		{"single -config typo", single("-config", "zerodve"), "baseline, zerodev, or unbounded"},
		{"trace -config typo", func() int {
			return traceCmd(append(small, "-config", "zerodve", "-replay", t.TempDir()))
		}, "baseline or zerodev"},
		{"compare ratio 1/8", compare("-configs", "baseline:1,zerodev:1/8"), "non-negative decimal number"},
		{"compare ratio 0.l25", compare("-configs", "zerodev:0.l25"), "non-negative decimal number"},
		{"compare -mode epdd", compare("-mode", "epdd"), "noninclusive, epd, or inclusive"},
		{"compare ratio -0.5", compare("-configs", "zerodev:-0.5"), "0 to 16"},
		{"compare ratio 1e9", compare("-configs", "zerodev:1e9"), "0 to 16"},
		{"single -ratio -0.5", single("-config", "baseline", "-ratio", "-0.5"), "0 to 16"},
		{"single -ratio NaN", single("-ratio", "NaN"), "0 to 16"},
		{"single -ratio +Inf", single("-ratio", "+Inf"), "0 to 16"},
		{"single -ratio 1e9", single("-ratio", "1e9"), "0 to 16"},
		{"bench -workers 0", bench("-workers", "0"), "at least 1"},
		{"bench -workers -3", bench("-workers", "-3"), "at least 1"},
		{"bench -max-regress NaN", bench("-max-regress", "NaN"), "finite fraction of at least 0"},
		{"bench -max-regress -0.1", bench("-max-regress", "-0.1"), "finite fraction of at least 0"},
		{"bench -max-regress +Inf", bench("-max-regress", "+Inf"), "finite fraction of at least 0"},
		{"run fig4 nosuch", run("fig4", "nosuch"), `"nosuch" (see ` + "`zerodev list`)"},
		{"audit -rate-scale NaN", func() int {
			return auditCmd(context.Background(), append(small, "-rate-scale", "NaN", "-checkpoint", "", "-quiet"))
		}, "at least 0"},
		{"check -job-timeout -1s", func() int {
			return checkCmd(context.Background(), []string{"-job-timeout", "-1s", "-quiet"})
		}, "at least 0 (0 = off)"},
		{"run -scale 128", func() int {
			return runCmd(context.Background(), []string{"-quick", "-scale", "128", "-accesses", "300", "-checkpoint", "", "fig2"})
		}, tooLarge},
		{"single -scale 128", single("-scale", "128"), tooLarge},
		{"compare -scale 128", compare("-scale", "128"), tooLarge},
		{"audit -scale 128", func() int {
			return auditCmd(context.Background(), []string{"-scale", "128", "-checkpoint", "", "-quiet"})
		}, tooLarge},
		{"bench -scale 128", bench("-scale", "128"), tooLarge},
	} {
		code, stdout, stderr := runCaptured(t, tc.cmd)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr %q)", tc.name, code, stderr)
		}
		if !strings.Contains(stderr, tc.names) {
			t.Errorf("%s: stderr %q does not name the valid values %q", tc.name, stderr, tc.names)
		}
		if stdout != "" {
			t.Errorf("%s: printed %q; a refused value must run nothing", tc.name, stdout)
		}
	}
}

// TestCompareCancelled: compare under an interrupted context renders
// every configuration column as CANCELLED, printing no number where a
// metric would be, and exits 130 instead of printing a table of zeros
// and exiting 0.
func TestCompareCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	code, stdout, stderr := runCaptured(t, func() int {
		return compareCmd(ctx, []string{"-scale", "32", "-accesses", "1000", "-workers", "2",
			"-configs", "baseline:1,zerodev:0,secdir:1", "canneal"})
	})
	if code != 130 {
		t.Errorf("exit %d, want 130 (stderr %q)", code, stderr)
	}
	lines := strings.Split(stdout, "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[1], "metric") {
		t.Fatalf("no compare table on stdout:\n%s", stdout)
	}
	rows := 0
	for _, row := range lines[2:] {
		if row == "" {
			break
		}
		rows++
		// The metric labels hold no digits, so any digit is a number
		// printed in a configuration column.
		if strings.ContainsAny(row, "0123456789") || strings.Count(row, "CANCELLED") != 3 {
			t.Errorf("row %q: want CANCELLED in each of the 3 configuration columns and no number", row)
		}
	}
	if rows == 0 {
		t.Fatalf("compare table has no rows:\n%s", stdout)
	}
	// A cancelled job is not a failure: stderr counts the experiment's
	// cancelled jobs in one line instead of printing one per job.
	if strings.Contains(stderr, "failed after") {
		t.Errorf("stderr reports a cancelled job as a failure:\n%s", stderr)
	}
	if n := strings.Count(stderr, "compare: 3 jobs cancelled\n"); n != 1 {
		t.Errorf("stderr has %d lines counting the 3 cancelled jobs, want 1:\n%s", n, stderr)
	}
}

// TestAuditResume: a complete audit checkpoint resumed under the same
// flags reproduces the fresh run's stdout byte for byte, and resuming it
// under a different fault configuration — injector set, audit interval
// or rate scale, each of which changes the cells — is refused with exit
// 2 before anything is printed.
func TestAuditResume(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "audit.json")
	base := []string{"-scale", "32", "-accesses", "3000", "-audit-every", "500", "-campaigns", "fpss-1s", "-workers", "1", "-quiet"}
	audit := func(args ...string) (int, string, string) {
		return runCaptured(t, func() int {
			return auditCmd(context.Background(), append(append([]string{}, base...), args...))
		})
	}
	code, fresh, stderr := audit("-faults", "storm", "-checkpoint", ck)
	if code != 0 || fresh == "" {
		t.Fatalf("fresh audit: exit %d, stdout %q, stderr %q", code, fresh, stderr)
	}
	code, resumed, stderr := audit("-faults", "storm", "-resume", ck, "-checkpoint", "")
	if code != 0 {
		t.Fatalf("same-flags resume: exit %d, stderr %q", code, stderr)
	}
	if resumed != fresh {
		t.Errorf("resumed stdout differs from the fresh run\n--- fresh ---\n%s\n--- resumed ---\n%s", fresh, resumed)
	}
	for _, changed := range [][]string{
		{"-faults", "deflip"},
		{"-faults", "storm", "-audit-every", "100"},
		{"-faults", "storm", "-rate-scale", "4"},
	} {
		code, stdout, stderr := audit(append(changed, "-resume", ck, "-checkpoint", "")...)
		if code != 2 {
			t.Errorf("resume with %v: exit %d, want 2 (stderr %q)", changed, code, stderr)
		}
		if !strings.Contains(stderr, "written by a different run") {
			t.Errorf("resume with %v: stderr %q is not the fingerprint-mismatch refusal", changed, stderr)
		}
		if stdout != "" {
			t.Errorf("resume with %v: printed %q; a refused resume must run nothing", changed, stdout)
		}
	}
}

// TestWellFormedValuesAccepted keeps the parsers from refusing the
// values the help text documents.
func TestWellFormedValuesAccepted(t *testing.T) {
	pre := config.TableI(8)
	for _, mode := range []string{"noninclusive", "EPD", "inclusive"} {
		for _, cfg := range []string{"baseline", "zerodev", "Unbounded"} {
			for _, pol := range []string{"spillall", "fpss", "FuseAll"} {
				for _, ratio := range []float64{0, 0.125, maxDirRatio} {
					if _, err := singleSpec(pre, cfg, ratio, pol, mode); err != nil {
						t.Errorf("single -config %s -ratio %g -policy %s -mode %s: %v", cfg, ratio, pol, mode, err)
					}
				}
			}
		}
	}
	names, specs, err := compareSpecs(pre, "baseline:1, zerodev:0,zerodev:0.125,unbounded,secdir:1,mgd:1e-1,zerodev:16", "epd")
	if err != nil || len(names) != 7 || len(specs) != 7 {
		t.Fatalf("compare configs: %d names, %d specs, err %v", len(names), len(specs), err)
	}
	for _, cfg := range []string{"baseline", "zerodev"} {
		if _, err := replaySpec(pre, cfg); err != nil {
			t.Errorf("trace -config %s: %v", cfg, err)
		}
	}
}
