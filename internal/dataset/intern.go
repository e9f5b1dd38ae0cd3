package dataset

import "sync"

// Schema is what a decoder reads before the first row: the relation, the
// class index and the attributes.
type Schema struct {
	Relation   string
	ClassIndex int
	Attrs      []*Attribute
}

// The decoders (ARFF text, dmb1 blocks) share one intern table of the
// schemas they have decoded, keyed by the schema's encoded bytes, so a
// service called again and again with one shape decodes that shape once.
// Only the *Attribute values are shared: every lookup hands out its own
// Attrs slice, and a schema with a String attribute is never interned,
// because Intern adds to a String attribute's values. An ARFF key is text
// that opens with a declaration or a comment, a dmb1 key opens with the
// block's magic, so the two never collide.
const (
	// maxSchemas bounds the table; when it is full a new schema evicts
	// an arbitrary one.
	maxSchemas = 256
	// maxSchemaKey bounds the encoded size of an interned schema; a
	// larger one is decoded on every call.
	maxSchemaKey = 16 << 10
)

var schemas = struct {
	sync.RWMutex
	m map[string]*Schema
}{m: make(map[string]*Schema, maxSchemas)}

// LookupSchema returns the schema interned under key, with an Attrs
// slice of its own, and whether there was one.
func LookupSchema[K string | []byte](key K) (Schema, bool) {
	if len(key) > maxSchemaKey {
		return Schema{}, false
	}
	schemas.RLock()
	s := schemas.m[string(key)]
	schemas.RUnlock()
	if s == nil {
		return Schema{}, false
	}
	return Schema{Relation: s.Relation, ClassIndex: s.ClassIndex, Attrs: append([]*Attribute(nil), s.Attrs...)}, true
}

// InternSchema enters s under key, unless key is too long or s has a
// String attribute. The table keeps key as it is, so it should be a string
// of its own, not a slice of a larger document, and its own copy of the
// Attrs slice; the *Attribute values themselves from now on belong to
// every dataset a lookup builds, and nothing may change them.
func InternSchema(key string, s Schema) {
	if len(key) > maxSchemaKey {
		return
	}
	for _, a := range s.Attrs {
		if a.Kind == String {
			return
		}
	}
	s.Attrs = append([]*Attribute(nil), s.Attrs...)
	schemas.Lock()
	defer schemas.Unlock()
	if _, ok := schemas.m[key]; ok {
		return
	}
	if len(schemas.m) >= maxSchemas {
		for k := range schemas.m {
			delete(schemas.m, k)
			break
		}
	}
	schemas.m[key] = &s
}
