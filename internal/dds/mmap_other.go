//go:build !linux

package dds

import (
	"io"
	"os"
)

// mmapFile is the portable fallback: without a memory-mapping syscall shim
// for this platform the segment file is read into an ordinary byte slice. The
// probe code upstairs is identical either way.
func mmapFile(f *os.File, size int64) ([]byte, func() error, error) {
	if size == 0 {
		return nil, func() error { return nil }, nil
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), data); err != nil {
		return nil, nil, err
	}
	return data, func() error { return nil }, nil
}
