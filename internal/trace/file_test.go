package trace

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSaveRejectsTcpdump(t *testing.T) {
	if err := Save(filepath.Join(t.TempDir(), "x.txt"), sampleTrace()); err == nil {
		t.Error("tcpdump text should be import-only")
	}
}

func TestGzipActuallyCompresses(t *testing.T) {
	p := Auckland()
	p.Span = 10 * time.Minute
	tr, err := Generate(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plain := filepath.Join(dir, "x.trace")
	zipped := filepath.Join(dir, "x.trace.gz")
	if err := Save(plain, tr); err != nil {
		t.Fatal(err)
	}
	if err := Save(zipped, tr); err != nil {
		t.Fatal(err)
	}
	ps, _ := os.Stat(plain)
	zs, _ := os.Stat(zipped)
	if zs.Size() >= ps.Size() {
		t.Errorf("gzip did not shrink: %d vs %d", zs.Size(), ps.Size())
	}
}
