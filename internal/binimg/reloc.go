package binimg

import (
	"fmt"
	"strings"

	"repro/internal/com"
)

// Activation-site relocation records.
//
// The rewriter embeds one ".reloc$<CLSID>" section per component class
// that performs instantiations (and ".reloc$<main>" for the main
// program's activation sites). The payload is a line-oriented record that
// Activations decodes back out of the binary:
//
//	coign-reloc v1
//	dynamic            (optional: the class computes CLSIDs at run time)
//	activate <CLSID>   (one line per statically known activation target)
//
// The format is deliberately strict — an unknown directive or a missing
// header is a parse error, never a guess — so corrupted images surface as
// errors in the scanner (see FuzzRecords and reach.FuzzReachScan).

// RelocPrefix is the naming convention for activation-record sections.
const RelocPrefix = ".reloc$"

// MainRelocName keys the main program's activation record; the full
// section name is RelocPrefix + MainRelocName.
const MainRelocName = "<main>"

// relocHeader is the first line of every activation record.
const relocHeader = "coign-reloc v1"

// EncodeReloc serializes an activation record payload.
func EncodeReloc(dynamic bool, targets []com.CLSID) []byte {
	var b strings.Builder
	b.WriteString(relocHeader)
	b.WriteByte('\n')
	if dynamic {
		b.WriteString("dynamic\n")
	}
	for _, t := range targets {
		b.WriteString("activate ")
		b.WriteString(string(t))
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// decodeReloc parses an activation record payload. Malformed payloads
// produce errors, never panics.
func decodeReloc(data []byte) (dynamic bool, targets []com.CLSID, err error) {
	line, rest, _ := strings.Cut(string(data), "\n")
	if line != relocHeader {
		return false, nil, fmt.Errorf("activation record missing %q header", relocHeader)
	}
	for rest != "" {
		line, rest, _ = strings.Cut(rest, "\n")
		switch {
		case line == "":
			// Trailing newline / blank separators are harmless.
		case line == "dynamic":
			dynamic = true
		case strings.HasPrefix(line, "activate "):
			clsid := strings.TrimPrefix(line, "activate ")
			if clsid == "" {
				return false, nil, fmt.Errorf("activation record with empty target CLSID")
			}
			targets = append(targets, com.CLSID(clsid))
		default:
			return false, nil, fmt.Errorf("unknown activation-record directive %q", line)
		}
	}
	return dynamic, targets, nil
}
