// Package diskio is the disk layer shared by every engine in this repo. It
// wraps plain files in a per-disk accounting and (optional) rate-limiting
// shim, modelling the single-HDD nodes of the paper's testbeds. Both the
// DataMPI runtime and the Hadoop baseline do all spill/shuffle/HDFS I/O
// through a Disk, so the Fig. 11 disk-throughput profiles and the Fig. 8
// tuning experiments fall out of the same counters for both engines.
package diskio

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Disk represents one node-local disk rooted at a directory.
type Disk struct {
	root string
	// rate limits combined read+write bandwidth in bytes/sec; 0 = unlimited.
	rate float64

	read    atomic.Int64
	written atomic.Int64

	mu       sync.Mutex
	nextFree time.Time
}

// New returns an unthrottled Disk rooted at dir, creating it if needed.
func New(dir string) (*Disk, error) { return NewRated(dir, 0) }

// NewRated returns a Disk whose aggregate throughput is limited to rate
// bytes/second (0 disables limiting).
func NewRated(dir string, rate float64) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskio: %w", err)
	}
	return &Disk{root: dir, rate: rate}, nil
}

// Root returns the disk's root directory.
func (d *Disk) Root() string { return d.root }

// Path resolves a disk-relative path.
func (d *Disk) Path(rel string) string { return filepath.Join(d.root, rel) }

// BytesRead returns cumulative bytes read through this disk.
func (d *Disk) BytesRead() int64 { return d.read.Load() }

// BytesWritten returns cumulative bytes written through this disk.
func (d *Disk) BytesWritten() int64 { return d.written.Load() }

// ResetCounters zeroes the read/write counters.
func (d *Disk) ResetCounters() {
	d.read.Store(0)
	d.written.Store(0)
}

func (d *Disk) charge(n int) {
	if d.rate <= 0 || n == 0 {
		return
	}
	dur := time.Duration(float64(n) / d.rate * float64(time.Second))
	d.mu.Lock()
	now := time.Now()
	if d.nextFree.Before(now) {
		d.nextFree = now
	}
	d.nextFree = d.nextFree.Add(dur)
	wake := d.nextFree
	d.mu.Unlock()
	time.Sleep(time.Until(wake))
}

// Create creates (truncating) a file for writing, making its directory
// only when it is missing: a spill writes many files into one directory.
func (d *Disk) Create(rel string) (*File, error) {
	p := d.Path(rel)
	f, err := os.Create(p)
	if errors.Is(err, os.ErrNotExist) {
		if err = os.MkdirAll(filepath.Dir(p), 0o755); err == nil {
			f, err = os.Create(p)
		}
	}
	if err != nil {
		return nil, err
	}
	return &File{f: f, d: d}, nil
}

// Open opens a file for reading.
func (d *Disk) Open(rel string) (*File, error) {
	f, err := os.Open(d.Path(rel))
	if err != nil {
		return nil, err
	}
	return &File{f: f, d: d}, nil
}

// Remove deletes a file.
func (d *Disk) Remove(rel string) error { return os.Remove(d.Path(rel)) }

// RemoveAll deletes a subtree.
func (d *Disk) RemoveAll(rel string) error { return os.RemoveAll(d.Path(rel)) }

// Size returns a file's length in bytes.
func (d *Disk) Size(rel string) (int64, error) {
	fi, err := os.Stat(d.Path(rel))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// List returns the names of files directly under a disk-relative directory.
func (d *Disk) List(rel string) ([]string, error) {
	ents, err := os.ReadDir(d.Path(rel))
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names, nil
}

// File is an accounting wrapper over *os.File. It implements io.Reader,
// io.Writer, io.ReaderAt and io.Closer.
type File struct {
	f *os.File
	d *Disk
}

// Read implements io.Reader, charging bytes to the disk.
func (f *File) Read(p []byte) (int, error) {
	n, err := f.f.Read(p)
	f.d.read.Add(int64(n))
	f.d.charge(n)
	return n, err
}

// ReadAt implements io.ReaderAt, charging bytes to the disk.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.f.ReadAt(p, off)
	f.d.read.Add(int64(n))
	f.d.charge(n)
	return n, err
}

// Write implements io.Writer, charging bytes to the disk.
func (f *File) Write(p []byte) (int, error) {
	n, err := f.f.Write(p)
	f.d.written.Add(int64(n))
	f.d.charge(n)
	return n, err
}

// Close closes the underlying file.
func (f *File) Close() error { return f.f.Close() }

// Name returns the underlying file path.
func (f *File) Name() string { return f.f.Name() }

var (
	_ io.Reader   = (*File)(nil)
	_ io.Writer   = (*File)(nil)
	_ io.ReaderAt = (*File)(nil)
	_ io.Closer   = (*File)(nil)
)
