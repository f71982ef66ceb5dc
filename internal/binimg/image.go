// Package binimg models application binaries and implements the Coign
// binary rewriter (paper §2).
//
// An Image is the synthetic analog of a Win32 PE file: a header, a DLL
// import table, code/data sections, and — after rewriting — a
// configuration record appended at the end of the binary. The rewriter
// makes exactly the two modifications the paper describes: it inserts an
// entry into the first slot of the import table to load the Coign runtime
// (which therefore always executes before the application or any of its
// DLLs), and it appends configuration information telling the runtime how
// to profile the application and classify components during execution.
package binimg

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/com"
)

// Magic identifies the synthetic image format ("CoIm").
const Magic uint32 = 0x436f496d

// CoignRuntimeDLL is the import-table entry for the Coign runtime.
const CoignRuntimeDLL = "coign.rt"

// Mode tells the runtime what instrumentation to load.
type Mode string

// Instrumentation modes.
const (
	// ModeNone: the image has no configuration record.
	ModeNone Mode = "" //lint:allow unusedexport closed set: the values of binimg.Mode, whose siblings are used
	// ModeProfiling loads the runtime with the profiling logger: every
	// call is sized and summarized.
	ModeProfiling Mode = "profiling"
	// ModeDistribution loads the lightweight runtime: the null logger and
	// the component factory that realizes the chosen distribution.
	ModeDistribution Mode = "distribution"
)

// Section is a named chunk of the binary. A code section's Data may view
// a page shared by every image, so no holder writes into Data.
type Section struct {
	Name string
	Data []byte
}

// ConfigRecord is the configuration information the rewriter appends to
// the binary: exactly what the Coign runtime reads at application load.
// The mode picks the runtime, the classifier and its depth identify each
// instantiation, and after analysis the distribution map places it. An
// encoded machine is its integer.
type ConfigRecord struct {
	Mode            Mode                   `json:"mode"`
	Classifier      string                 `json:"classifier"`
	ClassifierDepth int                    `json:"classifierDepth"`
	Distribution    map[string]com.Machine `json:"distribution,omitempty"`
}

// Image is a synthetic application binary.
type Image struct {
	AppName  string
	Imports  []string
	Sections []Section
	Config   *ConfigRecord
}

// Instrumented reports whether the Coign runtime occupies the first import
// slot.
func (im *Image) Instrumented() bool {
	return len(im.Imports) > 0 && im.Imports[0] == CoignRuntimeDLL
}

// CodeBytes returns the total size of all sections.
func (im *Image) CodeBytes() int {
	n := 0
	for _, s := range im.Sections {
		n += len(s.Data)
	}
	return n
}

// --- serialization ---

// The container format is length-prefixed little-endian binary with a
// trailing CRC32: magic, app name, import table, sections, optional
// config record (JSON).

func writeString(w *countingWriter, s string) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(s)))
	w.Write(b[:])
	w.Write([]byte(s))
}

func writeBytes(w *countingWriter, p []byte) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(p)))
	w.Write(b[:])
	w.Write(p)
}

type countingWriter struct {
	w   io.Writer
	crc uint32
	err error
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	n, err := cw.w.Write(p)
	cw.err = err
	return n, err
}

// Encode writes the image in container format.
func (im *Image) Encode(w io.Writer) error {
	cw := &countingWriter{w: w}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], Magic)
	cw.Write(b[:])
	writeString(cw, im.AppName)
	binary.LittleEndian.PutUint32(b[:], uint32(len(im.Imports)))
	cw.Write(b[:])
	for _, imp := range im.Imports {
		writeString(cw, imp)
	}
	binary.LittleEndian.PutUint32(b[:], uint32(len(im.Sections)))
	cw.Write(b[:])
	for _, s := range im.Sections {
		writeString(cw, s.Name)
		writeBytes(cw, s.Data)
	}
	if im.Config != nil {
		cfg, err := json.Marshal(im.Config)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(b[:], 1)
		cw.Write(b[:])
		writeBytes(cw, cfg)
	} else {
		binary.LittleEndian.PutUint32(b[:], 0)
		cw.Write(b[:])
	}
	if cw.err != nil {
		return cw.err
	}
	// Trailing checksum (not itself checksummed).
	binary.LittleEndian.PutUint32(b[:], cw.crc)
	_, err := w.Write(b[:])
	return err
}

type reader struct {
	buf []byte
	off int
}

func (r *reader) u32() (uint32, error) {
	if r.off+4 > len(r.buf) {
		return 0, fmt.Errorf("binimg: truncated image at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if r.off+int(n) > len(r.buf) {
		return "", fmt.Errorf("binimg: truncated string at offset %d", r.off)
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if r.off+int(n) > len(r.buf) {
		return nil, fmt.Errorf("binimg: truncated data at offset %d", r.off)
	}
	p := make([]byte, n)
	copy(p, r.buf[r.off:])
	r.off += int(n)
	return p, nil
}

// Decode reads an image from container bytes, verifying the checksum.
func Decode(data []byte) (*Image, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("binimg: image too short (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	wantCRC := binary.LittleEndian.Uint32(tail)
	if got := crc32.ChecksumIEEE(body); got != wantCRC {
		return nil, fmt.Errorf("binimg: checksum mismatch (image corrupted)")
	}
	r := &reader{buf: body}
	magic, err := r.u32()
	if err != nil {
		return nil, err
	}
	if magic != Magic {
		return nil, fmt.Errorf("binimg: bad magic %#x", magic)
	}
	im := &Image{}
	if im.AppName, err = r.str(); err != nil {
		return nil, err
	}
	nImp, err := r.u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nImp; i++ {
		s, err := r.str()
		if err != nil {
			return nil, err
		}
		im.Imports = append(im.Imports, s)
	}
	nSec, err := r.u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nSec; i++ {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		data, err := r.bytes()
		if err != nil {
			return nil, err
		}
		im.Sections = append(im.Sections, Section{Name: name, Data: data})
	}
	hasCfg, err := r.u32()
	if err != nil {
		return nil, err
	}
	if hasCfg == 1 {
		raw, err := r.bytes()
		if err != nil {
			return nil, err
		}
		var cfg ConfigRecord
		if err := json.Unmarshal(raw, &cfg); err != nil {
			return nil, fmt.Errorf("binimg: config record: %w", err)
		}
		im.Config = &cfg
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("binimg: %d trailing bytes", len(body)-r.off)
	}
	return im, nil
}

// WriteFile writes the image to disk.
func (im *Image) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := im.Encode(f); err != nil {
		return err
	}
	return f.Close()
}
