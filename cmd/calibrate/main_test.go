package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "calibrate")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building calibrate: %v\n%s", err, out)
	}
	return bin
}

func exitCode(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), string(out)
	}
	t.Fatalf("running calibrate: %v\n%s", err, out)
	return -1, ""
}

// TestExitCodeOnSeedZero: an explicit -seed 0 is a usage error, not a
// silent run at another seed (the evaluation layer reads 0 as "use the
// sweep default"); any other seed runs.
func TestExitCodeOnSeedZero(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildBinary(t)

	code, out := exitCode(t, bin, "-quick", "-seed", "0")
	if code != 2 {
		t.Fatalf("calibrate -seed 0 exited %d, want 2\n%s", code, out)
	}
	if !strings.Contains(out, "0xCA11B") {
		t.Errorf("calibrate -seed 0 message does not name the default seed:\n%s", out)
	}

	if code, out := exitCode(t, bin, "-quick", "-seed", "1"); code != 0 {
		t.Fatalf("calibrate -seed 1 exited %d, want 0\n%s", code, out)
	}
}
