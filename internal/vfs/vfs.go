// Package vfs is the filesystem seam under the sweep service's durable
// store: the serve WAL, which also holds the result cache's records and
// preempted jobs' resume points, performs its I/O through the FS interface
// rather than the os package directly, its compaction's rename included
// (WriteAtomic, which snapshot.AtomicWriteFile also calls, on OS).
//
// Two implementations exist. OS is a passthrough to the host filesystem.
// Faulty (faulty.go) wraps another FS with a deterministic, seeded fault
// plan — short/torn writes, fsync failures, ENOSPC, open/rename errors, and
// a crash-at-operation-N stop point — extending the simulator's seeded,
// replayable fault-plan discipline (network drops, directory NACKs) to the
// durability layer itself. The crash-point exploration harness in
// internal/serve drives a scripted workload through Faulty once per
// operation index and proves recovery holds at every one.
package vfs

import (
	"errors"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sort"
	"syscall"
)

// File is the writable-handle surface durable writers need: append or
// truncate-create writes, an explicit fsync, and close.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FS is the filesystem operation set the durability layer uses. Paths are
// host paths; implementations may reinterpret errors but not paths.
type FS interface {
	// ReadFile returns the file's contents (os.ReadFile semantics: a
	// missing file reports iofs.ErrNotExist via errors.Is).
	ReadFile(path string) ([]byte, error)
	// WriteFile writes data in one call without an fsync — callers that
	// need durability use Create+Sync.
	WriteFile(path string, data []byte, perm os.FileMode) error
	// Create opens path for writing, truncating any existing contents.
	Create(path string) (File, error)
	// OpenAppend opens an existing path for appending.
	OpenAppend(path string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	Truncate(path string, size int64) error
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir returns the names (not full paths) of dir's entries, sorted.
	ReadDir(path string) ([]string, error)
	// SyncDir fsyncs the directory itself, making renames and file
	// creations inside it durable — the step that keeps a rename from
	// vanishing after a power-loss-style crash.
	SyncDir(path string) error
}

// OS is the passthrough implementation over the host filesystem.
type OS struct{}

func (OS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (OS) WriteFile(path string, data []byte, perm os.FileMode) error {
	return os.WriteFile(path, data, perm)
}

func (OS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (OS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (OS) Remove(path string) error             { return os.Remove(path) }
func (OS) Truncate(path string, size int64) error {
	return os.Truncate(path, size)
}
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (OS) ReadDir(path string) ([]string, error) {
	ents, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (OS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteAtomic writes data to path via path+".tmp" and a rename, so readers
// see the old contents or the complete new ones, never a torn file: write
// and fsync the temp file (so the rename never outlives the data), rename,
// then fsync the directory (so the rename survives a power-loss-style
// crash). Create truncates a temp file an earlier crash left. Only the
// directory sync fails after the rename, with the new contents in place.
func WriteAtomic(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// IsNotExist reports a missing-file error from any FS implementation.
func IsNotExist(err error) bool { return errors.Is(err, iofs.ErrNotExist) }

// IsNoSpace reports an out-of-space error — real ENOSPC from the host or an
// injected one from Faulty. The serve layer keys its 507/queue-paused
// degradation off this.
func IsNoSpace(err error) bool { return errors.Is(err, syscall.ENOSPC) }
