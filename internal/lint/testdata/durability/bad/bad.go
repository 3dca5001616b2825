// Package bad exercises the orderings the durability analyzer flags:
// rename-before-fsync and discarded fsync errors.
package bad

import (
	"os"

	"repro/internal/fault"
)

// Publish renames a file whose bytes were never fsync'd: the name
// commits before the data.
func Publish(fsys fault.FS, tmp, final string) error {
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("data")); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp, final) // want `Rename publishes a file written earlier in this function without an intervening Sync`
}

// DiscardSync drops the only error that proves durability.
func DiscardSync(f fault.File) {
	f.Sync() // want `Sync error discarded`
}

// DeferSync cannot observe the error either.
func DeferSync(f fault.File) error {
	defer f.Sync() // want `Sync error discarded`
	_, err := f.Write([]byte("x"))
	return err
}

// BlankSync makes the discard explicit, which is still a discard.
func BlankSync(f fault.File) {
	_ = f.Sync() // want `Sync error discarded`
}

// writeAll hides the write one call deep; the package-level fixpoint
// still counts it at PublishViaHelper's call site.
func writeAll(f fault.File, data []byte) error {
	_, err := f.Write(data)
	return err
}

func PublishViaHelper(fsys fault.FS, f fault.File, tmp, final string) error {
	if err := writeAll(f, []byte("data")); err != nil {
		return err
	}
	return fsys.Rename(tmp, final) // want `Rename publishes a file written earlier in this function without an intervening Sync`
}

// PublishViaFuncValue hands the file to code the analysis cannot see
// (a func value here, an encoder of another package alike): that counts
// as a write, which the rename then publishes unsynced.
func PublishViaFuncValue(fsys fault.FS, f fault.File, write func(fault.File) error, tmp, final string) error {
	if err := write(f); err != nil {
		return err
	}
	return fsys.Rename(tmp, final) // want `Rename publishes a file written earlier in this function without an intervening Sync`
}
