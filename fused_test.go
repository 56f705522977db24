//go:build fused

package hetpnoc

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestNoFusedMultiplyAdd holds the module to the same floating-point
// results on every GOARCH. The Go spec lets a compiler fuse x*y + z into
// one rounding: amd64 and 386 never do, while arm64, ppc64le, s390x and
// riscv64 do. The test cross-compiles the module for each of those four
// with -gcflags=-S and fails on any fused instruction in a module
// function, naming the function and the source line (an inlined callee's
// line when the product came from one). The fix is an explicit
// conversion, float64(x*y) + z, which rounds the product.
//
// The build tag keeps it out of `go test ./...`: a cold cross-compile of
// the standard library takes about 20 s per architecture. `make fused`
// runs the arm64 case:
//
//	go test -tags fused -count=1 -run '^TestNoFusedMultiplyAdd$/^arm64$' .
func TestNoFusedMultiplyAdd(t *testing.T) {
	fusedOp := regexp.MustCompile(`^FN?M(ADD|SUB)[SD]?$`)
	inModule := func(fn string) bool {
		return strings.HasPrefix(fn, "hetpnoc/") || strings.HasPrefix(fn, "hetpnoc.")
	}
	for _, arch := range []string{"arm64", "ppc64le", "s390x", "riscv64"} {
		t.Run(arch, func(t *testing.T) {
			cmd := exec.Command("go", "build", "-gcflags=-S", "./...")
			cmd.Env = append(os.Environ(), "GOARCH="+arch, "CGO_ENABLED=0")
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("GOARCH=%s go build: %v\n%s", arch, err, out)
			}
			fn, listed := "", 0
			for _, line := range strings.Split(string(out), "\n") {
				// A function opens with "<name> STEXT size=...", and each
				// instruction reads "\t0x0010 00016 (file.go:146)\tFMADDD\tF1, F2, F0, F1".
				if name, _, ok := strings.Cut(line, " STEXT "); ok {
					fn = name
					if inModule(fn) {
						listed++
					}
					continue
				}
				fields := strings.Split(line, "\t")
				if len(fields) < 3 || !inModule(fn) || !fusedOp.MatchString(fields[2]) {
					continue
				}
				_, pos, _ := strings.Cut(fields[1], "(")
				t.Errorf("%s: %s at %s", fn, fields[2], strings.TrimSuffix(pos, ")"))
			}
			if listed == 0 {
				t.Fatalf("GOARCH=%s: the listing names no module function; -gcflags=-S printed nothing", arch)
			}
		})
	}
}
