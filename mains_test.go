package cellport_test

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMainsSmoke builds every example and the cellprof/marvelcell CLIs
// and runs each once with small inputs: a main that no longer builds,
// exits non-zero, or prints nothing fails here instead of in a user's
// terminal.
func TestMainsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs seven binaries")
	}
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	small := []string{"-images", "1", "-width", "64", "-height", "48"}
	mains := []struct {
		pkg  string
		args []string
	}{
		{"./examples/imagefilter", nil},
		{"./examples/marvel", nil},
		{"./examples/quickstart", nil},
		{"./examples/scheduling", nil},
		{"./examples/training", nil},
		{"./cmd/cellprof", small},
		{"./cmd/marvelcell", small},
	}
	bin := t.TempDir()
	build := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, m := range mains {
		build = append(build, m.pkg)
	}
	if out, err := exec.Command(gotool, build...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, m := range mains {
		name := filepath.Base(m.pkg)
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bin, name), m.args...)
			out, err := cmd.Output()
			if err != nil {
				stderr := ""
				if ee, ok := err.(*exec.ExitError); ok {
					stderr = string(ee.Stderr)
				}
				t.Fatalf("%s %v: %v\n%s", name, m.args, err, stderr)
			}
			if len(out) == 0 {
				t.Fatalf("%s %v printed nothing", name, m.args)
			}
		})
	}
}
