// Package faultfs is a fault-injection filesystem for crash-recovery
// testing. It wraps a real store.FS, counts every filesystem operation,
// and simulates a kill -9 at any chosen operation: from that operation
// on, every call fails with ErrCrashed — including calls from background
// goroutines the "dead" process might still have in flight — so nothing
// can touch the data directory after the crash point. The crashing write
// itself can optionally go through partially (a torn write), modeling a
// power cut mid-sector.
//
// The intended protocol is the one the store's crash sweep uses: run the
// workload once uninstrumented to learn the total operation count N,
// then re-run it N times with CrashAt(1..N), recovering from the
// surviving directory each time and asserting the recovered state equals
// the acked prefix of the workload.
package faultfs

import (
	"errors"
	"sync/atomic"

	"indice/internal/store"
)

// ErrCrashed is returned by every operation at and after the crash
// point.
var ErrCrashed = errors.New("faultfs: simulated crash")

// FS wraps an inner filesystem with operation counting and crash
// injection. The zero CrashAt (never armed) makes it a transparent
// pass-through counter.
type FS struct {
	inner store.FS

	ops     atomic.Int64
	crashAt atomic.Int64 // crash when the op counter reaches this; 0 = off
	crashed atomic.Bool

	// Torn maps the crashing write's length to the prefix actually
	// persisted (default: half). Only the crash-point write is torn;
	// earlier writes completed, later ones never happen.
	Torn func(n int) int
}

// New wraps inner with fault injection.
func New(inner store.FS) *FS { return &FS{inner: inner} }

// Ops returns the number of operations attempted so far.
func (f *FS) Ops() int64 { return f.ops.Load() }

// CrashAt arms the crash: the n-th operation from now on (1-based over
// the whole lifetime counter) and all later ones fail.
func (f *FS) CrashAt(n int64) { f.crashAt.Store(n) }

// step counts one operation and reports whether it must fail.
func (f *FS) step() error {
	if f.crashed.Load() {
		return ErrCrashed
	}
	n := f.ops.Add(1)
	if c := f.crashAt.Load(); c > 0 && n >= c {
		f.crashed.Store(true)
		return ErrCrashed
	}
	return nil
}

// tornPrefix returns how many bytes of the crashing write persist.
func (f *FS) tornPrefix(n int) int {
	if f.Torn != nil {
		k := f.Torn(n)
		if k < 0 {
			k = 0
		}
		if k > n {
			k = n
		}
		return k
	}
	return n / 2
}

// MkdirAll implements store.FS.
func (f *FS) MkdirAll(path string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.MkdirAll(path)
}

// Create implements store.FS.
func (f *FS) Create(name string) (store.File, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, f: inner}, nil
}

// OpenAppend implements store.FS.
func (f *FS) OpenAppend(name string) (store.File, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	inner, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, f: inner}, nil
}

// Open implements store.FS.
func (f *FS) Open(name string) (store.File, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	inner, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, f: inner}, nil
}

// Rename implements store.FS.
func (f *FS) Rename(oldpath, newpath string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements store.FS.
func (f *FS) Remove(name string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// Truncate implements store.FS.
func (f *FS) Truncate(name string, size int64) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.Truncate(name, size)
}

// ReadDir implements store.FS.
func (f *FS) ReadDir(name string) ([]string, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

// SyncDir implements store.FS.
func (f *FS) SyncDir(name string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.SyncDir(name)
}

// Size implements store.FS.
func (f *FS) Size(name string) (int64, error) {
	if err := f.step(); err != nil {
		return 0, err
	}
	return f.inner.Size(name)
}

// file wraps one open file with the same crash gate. The crash-point
// write persists a torn prefix before failing.
type file struct {
	fs *FS
	f  store.File
}

// Read implements store.File.
func (w *file) Read(p []byte) (int, error) {
	if err := w.fs.step(); err != nil {
		return 0, err
	}
	return w.f.Read(p)
}

// Write implements store.File.
func (w *file) Write(p []byte) (int, error) {
	if w.fs.crashed.Load() {
		return 0, ErrCrashed
	}
	n := w.fs.ops.Add(1)
	if c := w.fs.crashAt.Load(); c > 0 && n >= c {
		w.fs.crashed.Store(true)
		if k := w.fs.tornPrefix(len(p)); k > 0 {
			w.f.Write(p[:k])
		}
		return 0, ErrCrashed
	}
	return w.f.Write(p)
}

// Sync implements store.File.
func (w *file) Sync() error {
	if err := w.fs.step(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close implements store.File. Close always reaches the inner file so
// descriptors never leak, but reports the crash to the caller.
func (w *file) Close() error {
	err := w.f.Close()
	if w.fs.crashed.Load() {
		return ErrCrashed
	}
	if serr := w.fs.step(); serr != nil {
		return serr
	}
	return err
}
