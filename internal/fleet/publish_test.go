package fleet

import (
	"os"
	"path/filepath"
	"testing"
)

func TestDirPublisherAtomicWrite(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "models") // not yet created: Publish must mkdir
	p := DirPublisher{Dir: dir}
	if err := p.Publish("model.json", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := p.Publish("model.json", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "model.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v2" {
		t.Fatalf("published content %q, want the last write", data)
	}
	// No staging temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("publish dir has %d entries, want 1: %v", len(entries), entries)
	}
}

func TestDirPublisherRejectsTraversal(t *testing.T) {
	p := DirPublisher{Dir: t.TempDir()}
	for _, bad := range []string{"", "../escape.json", "a/b.json", `a\b.json`} {
		if err := p.Publish(bad, []byte("x")); err == nil {
			t.Errorf("Publish(%q) accepted", bad)
		}
	}
}
