// Package caching implements per-interface result caching, the analog of
// enabling COM semi-custom marshaling on communication-intensive
// interfaces (paper §4.3: "Coign can also selectively enable per-interface
// caching (as appropriate) through COM's semi-custom marshaling
// mechanism", and §6: "the programmer fine-tunes the distribution by
// enabling custom marshaling and caching on communication intensive
// interfaces").
//
// A method marked Cacheable in its IDL declares that its results depend
// only on its arguments (the assertion a programmer makes when switching
// an interface to custom marshaling). The runtime then answers repeated
// cross-machine calls from a proxy-side cache instead of a network round
// trip. Calls whose arguments cannot be digested (opaque pointers) are
// never cached.
package caching

import (
	"hash/fnv"

	"repro/internal/idl"
)

// key identifies one cached invocation.
type key struct {
	inst   uint64
	method string
	digest uint64
}

// maxEntries bounds a cache; a full cache stores nothing more.
const maxEntries = 1 << 16

// Cache is a proxy-side result cache for cacheable interface methods.
type Cache struct {
	entries map[key][]idl.Value
	hits    int64
}

// New returns an empty cache bounded to maxEntries entries.
func New() *Cache {
	return &Cache{entries: make(map[key][]idl.Value)}
}

// Hits returns how many cross-machine calls were answered locally.
func (c *Cache) Hits() int64 { return c.hits }

// Lookup returns the cached results for an invocation, if present.
func (c *Cache) Lookup(inst uint64, method string, args []idl.Value) ([]idl.Value, bool) {
	d, ok := digest(args)
	if !ok {
		return nil, false
	}
	rets, hit := c.entries[key{inst, method, d}]
	if hit {
		c.hits++
		return rets, true
	}
	return nil, false
}

// Store records the results of an invocation. Results containing opaque
// values are not stored (they cannot be replayed across machines).
func (c *Cache) Store(inst uint64, method string, args, rets []idl.Value) {
	if len(c.entries) >= maxEntries {
		return
	}
	d, ok := digest(args)
	if !ok {
		return
	}
	if !idl.RemotableValues(rets) {
		return
	}
	c.entries[key{inst, method, d}] = rets
}

// digest hashes an argument list; ok is false when the arguments contain
// values with no stable wire identity (opaque pointers).
func digest(args []idl.Value) (uint64, bool) {
	h := fnv.New64a()
	ok := true
	var buf [8]byte
	wr64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for i := range args {
		args[i].Walk(func(v *idl.Value) bool {
			if v.Type == nil {
				wr64(0)
				return true
			}
			wr64(uint64(v.Type.Kind) + 0x9e3779b9)
			switch v.Type.Kind {
			case idl.KindOpaque:
				ok = false
				return false
			case idl.KindBool, idl.KindInt32, idl.KindInt64:
				wr64(uint64(v.Int))
			case idl.KindFloat64:
				wr64(uint64(int64(v.Float * 1e9)))
			case idl.KindString:
				h.Write([]byte(v.Str))
			case idl.KindBytes:
				h.Write(v.Bytes)
			case idl.KindInterface:
				if v.Iface != nil {
					h.Write([]byte(v.Iface.IID()))
					wr64(v.Iface.InstanceID())
				}
			case idl.KindStruct, idl.KindArray:
				wr64(uint64(len(v.Elems)))
			}
			return true
		})
		if !ok {
			return 0, false
		}
	}
	return h.Sum64(), true
}
