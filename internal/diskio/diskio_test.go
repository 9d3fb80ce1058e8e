package diskio

import (
	"bytes"
	"io"
	"os"
	"testing"
	"time"
)

func TestCreateWriteReadCounters(t *testing.T) {
	d, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := d.Create("sub/dir/file.dat")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 4096)
	if _, err := f.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if d.BytesWritten() != 4096 {
		t.Errorf("written = %d, want 4096", d.BytesWritten())
	}
	r, err := d.Open("sub/dir/file.dat")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if !bytes.Equal(got, payload) {
		t.Error("read data mismatch")
	}
	if d.BytesRead() != 4096 {
		t.Errorf("read = %d, want 4096", d.BytesRead())
	}
	sz, err := d.Size("sub/dir/file.dat")
	if err != nil || sz != 4096 {
		t.Errorf("Size = %d, %v", sz, err)
	}
	d.ResetCounters()
	if d.BytesRead() != 0 || d.BytesWritten() != 0 {
		t.Error("counters not reset")
	}
}

// TestCreateMakesMissingDir: Create makes a missing nested directory,
// and makes it again after the directory is removed under it.
func TestCreateMakesMissingDir(t *testing.T) {
	d, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		f, err := d.Create("a/b/c/run.dat")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if n, err := d.Size("a/b/c/run.dat"); err != nil || n != 0 {
			t.Fatalf("round %d: size %d, %v", round, n, err)
		}
		if err := d.RemoveAll("a"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReadAt(t *testing.T) {
	d, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, _ := d.Create("f")
	f.Write([]byte("hello world"))
	f.Close()
	r, _ := d.Open("f")
	defer r.Close()
	buf := make([]byte, 5)
	if _, err := r.ReadAt(buf, 6); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Errorf("ReadAt got %q", buf)
	}
}

func TestListRemove(t *testing.T) {
	d, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"dir/a", "dir/b"} {
		f, _ := d.Create(name)
		f.Close()
	}
	names, err := d.List("dir")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("List = %v", names)
	}
	if err := d.Remove("dir/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Open("dir/a"); !os.IsNotExist(err) {
		t.Error("file not removed")
	}
	if err := d.RemoveAll("dir"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.List("dir"); err == nil {
		t.Error("directory not removed")
	}
}

func TestRatedDiskThrottles(t *testing.T) {
	d, err := NewRated(t.TempDir(), 1e6) // 1 MB/s
	if err != nil {
		t.Fatal(err)
	}
	f, _ := d.Create("f")
	defer f.Close()
	start := time.Now()
	f.Write(make([]byte, 100_000)) // 100 KB at 1 MB/s = 100 ms
	if el := time.Since(start); el < 80*time.Millisecond {
		t.Errorf("rated write finished too fast: %v", el)
	}
}

func TestOpenMissing(t *testing.T) {
	d, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Open("nope"); err == nil {
		t.Error("want error opening missing file")
	}
}
