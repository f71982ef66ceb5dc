package binimg

import (
	"os"
)

// Helpers that only the tests use.

// ReadFile reads an image from disk.
func ReadFile(path string) (*Image, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
