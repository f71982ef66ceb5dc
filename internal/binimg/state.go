package binimg

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/com"
)

// State-mutability records.
//
// The rewriter embeds one ".state$<CLSID>" section per component class
// that ships a state descriptor. The payload is a line-oriented record
// that States decodes back out of the binary:
//
//	coign-state v1
//	bytes <N>        (size of the instance state block; 0 = stateless)
//	read <method>    (one line per declared state-reading method)
//	write <method>   (one line per declared state-writing method)
//
// Like activation records the format is deliberately strict — an unknown
// directive, a missing header, or a malformed size is a parse error,
// never a guess — so corrupted images surface as errors in the scanners
// (see FuzzRecords and purity.FuzzPurityScan).

// StatePrefix is the naming convention for state-descriptor sections.
const StatePrefix = ".state$"

// stateHeader is the first line of every state record.
const stateHeader = "coign-state v1"

// EncodeState serializes a state descriptor payload.
func EncodeState(s *com.StateDesc) []byte {
	var b strings.Builder
	b.WriteString(stateHeader)
	b.WriteByte('\n')
	b.WriteString("bytes ")
	b.WriteString(strconv.Itoa(s.Bytes))
	b.WriteByte('\n')
	for _, m := range s.Reads {
		b.WriteString("read ")
		b.WriteString(m)
		b.WriteByte('\n')
	}
	for _, m := range s.Writes {
		b.WriteString("write ")
		b.WriteString(m)
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// decodeState parses a state record payload. Malformed payloads produce
// errors, never panics.
func decodeState(data []byte) (*com.StateDesc, error) {
	line, rest, _ := strings.Cut(string(data), "\n")
	if line != stateHeader {
		return nil, fmt.Errorf("state record missing %q header", stateHeader)
	}
	desc := &com.StateDesc{Bytes: -1}
	for rest != "" {
		line, rest, _ = strings.Cut(rest, "\n")
		switch {
		case line == "":
			// Trailing newline / blank separators are harmless.
		case strings.HasPrefix(line, "bytes "):
			n, err := strconv.Atoi(strings.TrimPrefix(line, "bytes "))
			if err != nil || n < 0 {
				return nil, fmt.Errorf("state record with bad size %q", line)
			}
			if desc.Bytes >= 0 {
				return nil, fmt.Errorf("state record with duplicate bytes directive")
			}
			desc.Bytes = n
		case strings.HasPrefix(line, "read "):
			m := strings.TrimPrefix(line, "read ")
			if m == "" {
				return nil, fmt.Errorf("state record with empty read method")
			}
			desc.Reads = append(desc.Reads, m)
		case strings.HasPrefix(line, "write "):
			m := strings.TrimPrefix(line, "write ")
			if m == "" {
				return nil, fmt.Errorf("state record with empty write method")
			}
			desc.Writes = append(desc.Writes, m)
		default:
			return nil, fmt.Errorf("unknown state-record directive %q", line)
		}
	}
	if desc.Bytes < 0 {
		return nil, fmt.Errorf("state record missing bytes directive")
	}
	return desc, nil
}
