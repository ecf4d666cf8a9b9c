package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// fusedOps lists, for each port whose Go compiler fuses x*y + z into one
// instruction, the fused multiply-add mnemonics go tool objdump prints.
var fusedOps = map[string][]string{
	"arm64":   {"FMADDD", "FMSUBD", "FNMADDD", "FNMSUBD", "FMADDS", "FMSUBS", "FNMADDS", "FNMSUBS"},
	"riscv64": {"FMADDD", "FMSUBD", "FNMADDD", "FNMSUBD", "FMADDS", "FMSUBS", "FNMADDS", "FNMSUBS"},
	"ppc64le": {"FMADD", "FMSUB", "FNMADD", "FNMSUB", "FMADDS", "FMSUBS", "FNMADDS", "FNMSUBS"},
	"s390x":   {"MADBR", "MSDBR", "MAEBR", "MSEBR", "MADB", "MSDB", "MAEB", "MSEB"},
}

// fusedSites scans go tool objdump output for instructions named in ops
// inside repro/ symbols, and returns one line per site: the source
// position objdump reports, the function and the instruction.
func fusedSites(dump []byte, ops []string) []string {
	fused := map[string]bool{}
	for _, op := range ops {
		fused[op] = true
	}
	var sites []string
	fn := ""
	sc := bufio.NewScanner(bytes.NewReader(dump))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "TEXT "); ok {
			fn, _, _ = strings.Cut(rest, "(SB)")
			continue
		}
		// An instruction line: position, address, encoding, assembly.
		f := strings.FieldsFunc(line, func(r rune) bool { return r == '\t' })
		if len(f) < 4 || !strings.HasPrefix(fn, "repro/") {
			continue
		}
		asm := strings.TrimSpace(f[3])
		op, _, _ := strings.Cut(asm, " ")
		if fused[op] {
			sites = append(sites, fmt.Sprintf("%s: %s: %s", strings.TrimSpace(f[0]), fn, asm))
		}
	}
	return sites
}

// TestNoFusedMultiplyAdd keeps fingerprints independent of the host's
// instruction set. The Go spec lets a compiler fuse x*y + z into one
// multiply-add, which rounds once instead of twice, unless an explicit
// conversion rounds the product: float64(x*y) + z. The compiler does fuse
// on the ports below, so every product that feeds a sum in the simulator
// must be written that way. The test cross-builds wwtsim for each port with
// the local toolchain and fails on any fused instruction in repro code,
// naming the source position and the function.
func TestNoFusedMultiplyAdd(t *testing.T) {
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command in PATH")
	}
	sample := []byte("TEXT repro/x.f(SB) /src/x.go\n  x.go:7\t\t0x10\t\t1f420020\t\tFMADDD F2, F0, F1, F0\t\n")
	if got := fusedSites(sample, fusedOps["arm64"]); len(got) != 1 || got[0] != "x.go:7: repro/x.f: FMADDD F2, F0, F1, F0" {
		t.Fatalf("scanner on a fused sample = %q", got)
	}
	dir := t.TempDir()
	for _, arch := range []string{"arm64", "ppc64le", "riscv64", "s390x"} {
		t.Run(arch, func(t *testing.T) {
			bin := filepath.Join(dir, "wwtsim."+arch)
			build := exec.Command(goCmd, "build", "-o", bin, ".")
			build.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0", "GOTOOLCHAIN=local", "GOFLAGS=")
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("cross build: %v\n%s", err, out)
			}
			dump, err := exec.Command(goCmd, "tool", "objdump", "-s", "^repro/", bin).Output()
			if err != nil {
				t.Fatalf("objdump: %v", err)
			}
			for _, site := range fusedSites(dump, fusedOps[arch]) {
				t.Errorf("fused multiply-add at %s; round the product with float64(x*y)", site)
			}
		})
	}
}
