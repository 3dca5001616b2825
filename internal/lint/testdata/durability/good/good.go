// Package good holds the durable orderings the analyzer must accept:
// write, fsync (checked), then rename; helpers that sync internally;
// best-effort directory sync.
package good

import (
	"os"

	"repro/internal/fault"
)

// Publish is the canonical durable publish: data is fsync'd before the
// rename commits its name, and every error is observed.
func Publish(fsys fault.FS, tmp, final string) error {
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("data")); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, final); err != nil {
		return err
	}
	// Directory fsync is documented best-effort; its error may be
	// dropped without weakening the data's durability.
	_ = fsys.SyncDir(final)
	return nil
}

// writeDurable writes AND syncs; callers may rename after it without a
// sync of their own (the fixpoint sees both events inside).
func writeDurable(f fault.File, data []byte) error {
	if _, err := f.Write(data); err != nil {
		return err
	}
	return f.Sync()
}

func PublishViaHelper(fsys fault.FS, f fault.File, tmp, final string) error {
	if err := writeDurable(f, []byte("data")); err != nil {
		return err
	}
	return fsys.Rename(tmp, final)
}

// RenameOnly publishes nothing written here (a pure move); no sync is
// demanded.
func RenameOnly(fsys fault.FS, from, to string) error {
	return fsys.Rename(from, to)
}

// PublishViaFuncValue syncs after handing the file to a writer it
// cannot see into.
func PublishViaFuncValue(fsys fault.FS, f fault.File, write func(fault.File) error, tmp, final string) error {
	if err := write(f); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return fsys.Rename(tmp, final)
}
