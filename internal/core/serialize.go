package core

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"reflect"
	"sync"
)

// Persistent policies (§3.4.1): RESIN serializes policy objects when data
// leaves the runtime for files or database cells, and re-instantiates them
// when the data is read back, so assertions survive across program
// executions and can even be checked by other RESIN-aware programs (the
// web server's static file path).
//
// "RESIN only serializes the class name and data fields of a policy
// object" — so a policy class must be registered under a stable name, and
// its data fields round-trip through encoding/json. Deserialized policies
// are instantiated from the stored bytes, so their class code is whatever
// the current program defines, which is what lets programmers evolve
// export_check behaviour without migrating stored policies. Instantiation
// is per distinct stored annotation, not per read: repeated decodes of
// the same bytes share one memoized instance (see DecodeSpans), so
// decoded policies are plain data and must not be mutated.

type classRegistry struct {
	mu     sync.RWMutex
	byName map[string]reflect.Type
	byType map[reflect.Type]string
}

func newClassRegistry() *classRegistry {
	return &classRegistry{
		byName: make(map[string]reflect.Type),
		byType: make(map[reflect.Type]string),
	}
}

func (r *classRegistry) register(name string, prototype any) {
	t := reflect.TypeOf(prototype)
	if t == nil {
		panic("resin: register class: nil prototype")
	}
	if t.Kind() != reflect.Pointer || t.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("resin: register class %q: prototype must be a pointer to struct, got %T", name, prototype))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byName[name]; ok && old != t {
		panic(fmt.Sprintf("resin: class name %q already registered for %v", name, old))
	}
	r.byName[name] = t
	r.byType[t] = name
}

func (r *classRegistry) nameOf(v any) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	name, ok := r.byType[reflect.TypeOf(v)]
	return name, ok
}

func (r *classRegistry) instantiate(name string) (any, bool) {
	r.mu.RLock()
	t, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return reflect.New(t.Elem()).Interface(), true
}

var (
	policyClasses = newClassRegistry()
	filterClasses = newClassRegistry()
)

// RegisterPolicyClass registers a policy class for persistent
// serialization under a stable name. The prototype must be a pointer to a
// struct; its exported fields are the serialized "data fields".
// Registration typically happens in an init function of the package
// defining the policy.
func RegisterPolicyClass(name string, prototype Policy) {
	policyClasses.register(name, prototype)
}

// RegisteredPolicyName returns the class name p was registered under.
func RegisteredPolicyName(p Policy) (string, bool) { return policyClasses.nameOf(p) }

// RegisterFilterClass registers a filter class for persistent filter
// objects (§3.2.3), which are stored in file/directory extended attributes.
func RegisterFilterClass(name string, prototype Filter) {
	filterClasses.register(name, prototype)
}

// RegisteredFilterName returns the class name f was registered under.
func RegisteredFilterName(f Filter) (string, bool) { return filterClasses.nameOf(f) }

// wireObject is the serialized form of a policy or filter object: the
// class name plus the JSON encoding of the object's data fields.
type wireObject struct {
	Class  string          `json:"class"`
	Fields json.RawMessage `json:"fields"`
}

func encodeObject(reg *classRegistry, what string, v any) ([]byte, error) {
	name, ok := reg.nameOf(v)
	if !ok {
		return nil, fmt.Errorf("resin: cannot serialize unregistered %s class %T", what, v)
	}
	fields, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("resin: serialize %s %s: %w", what, name, err)
	}
	return json.Marshal(wireObject{Class: name, Fields: fields})
}

func decodeObject(reg *classRegistry, what string, data []byte) (any, error) {
	var w wireObject
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("resin: decode %s: %w", what, err)
	}
	v, ok := reg.instantiate(w.Class)
	if !ok {
		return nil, fmt.Errorf("resin: decode %s: unknown class %q", what, w.Class)
	}
	if len(w.Fields) > 0 {
		if err := json.Unmarshal(w.Fields, v); err != nil {
			return nil, fmt.Errorf("resin: decode %s %s fields: %w", what, w.Class, err)
		}
	}
	return v, nil
}

// EncodePolicy serializes a policy object as {"class": ..., "fields": ...}.
func EncodePolicy(p Policy) ([]byte, error) { return encodeObject(policyClasses, "policy", p) }

// DecodePolicy re-instantiates a policy object serialized by EncodePolicy.
func DecodePolicy(data []byte) (Policy, error) {
	v, err := decodeObject(policyClasses, "policy", data)
	if err != nil {
		return nil, err
	}
	p, ok := v.(Policy)
	if !ok {
		return nil, fmt.Errorf("resin: decoded class %T is not a Policy", v)
	}
	return p, nil
}

// EncodeFilter serializes a persistent filter object (§3.2.3).
func EncodeFilter(f Filter) ([]byte, error) { return encodeObject(filterClasses, "filter", f) }

// DecodeFilter re-instantiates a persistent filter object.
func DecodeFilter(data []byte) (Filter, error) {
	return decodeObject(filterClasses, "filter", data)
}

// wireSpan is the serialized form of one policy span of a tracked string.
type wireSpan struct {
	Start    int               `json:"start"`
	End      int               `json:"end"`
	Policies []json.RawMessage `json:"policies"`
}

// EncodeSpans serializes the policy annotation of a tracked string — the
// metadata the default file filter writes into a file's extended
// attributes and the SQL filter writes into policy columns. Returns nil
// for an untainted string. Policies that are not registered for
// serialization are skipped with an error so that confidentiality
// policies are never silently dropped.
func EncodeSpans(t String) ([]byte, error) {
	if !t.IsTainted() {
		return nil, nil
	}
	if lineageOn() {
		lineageRecordSpans(t, "serialize", "core.encode")
	}
	var ws []wireSpan
	err := t.EachTaintedSpan(func(start, end int, ps *PolicySet) error {
		w := wireSpan{Start: start, End: end}
		if err := ps.Each(func(p Policy) error {
			enc, err := EncodePolicy(p)
			if err != nil {
				return err
			}
			w.Policies = append(w.Policies, enc)
			return nil
		}); err != nil {
			return err
		}
		ws = append(ws, w)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(ws)
}

// CompiledAnnotation is a policy annotation parsed, instantiated, and
// interned once, applicable to any number of raw values. The SQL
// filter's batched decode path compiles each distinct annotation of a
// result set once and applies it per cell, so a SELECT returning N rows
// pays JSON parsing and policy instantiation per distinct annotation,
// not per cell. Compiled annotations are immutable.
type CompiledAnnotation struct {
	spans []compiledSpan
}

type compiledSpan struct {
	start, end int
	set        *PolicySet
}

// Apply attaches the compiled spans to raw, clipped to its bounds.
func (c *CompiledAnnotation) Apply(raw string) String {
	t := NewString(raw)
	if c == nil {
		return t
	}
	for _, s := range c.spans {
		t = t.withSetRange(s.start, s.end, s.set)
	}
	return t
}

// PolicySet returns the interned union of every span's policy set —
// the whole-value policy content of the annotation, independent of
// which byte ranges carry it. The SQL filter uses this to attach
// aggregate outputs (where span positions are meaningless) with the
// union of their inputs' policies. A nil or empty annotation yields
// nil, which callers treat as untainted.
func (c *CompiledAnnotation) PolicySet() *PolicySet {
	if c == nil {
		return nil
	}
	var set *PolicySet
	for _, s := range c.spans {
		set = set.Union(s.set)
	}
	return set
}

// The annotation memos below are GenCaches keyed by a seeded hash of
// the stored bytes rather than by the bytes themselves: passing
// string(annotation) to a method copies it, while hashing the slice
// does not, so the hit path stays allocation-free. Each entry keeps its
// bytes and a hit compares them, so a hash collision is just a miss.
var memoSeed = maphash.MakeSeed()

type compileMemoEntry struct {
	annotation string
	c          *CompiledAnnotation
}

const (
	// annCompileMemoCap bounds the number of memoized compiles.
	annCompileMemoCap = 4096
	// annCompileMemoMaxBytes bounds one memoizable annotation; larger
	// annotations compile per call rather than pin the memo.
	annCompileMemoMaxBytes = 64 << 10
	// annCompileMemoMaxTotal bounds the cumulative annotation bytes
	// pinned by the memo.
	annCompileMemoMaxTotal = 8 << 20
)

// annCompileMemo caches CompileAnnotation results per annotation bytes.
var annCompileMemo = NewGenCache(annCompileMemoCap, annCompileMemoMaxTotal,
	func(_ uint64, e compileMemoEntry) int { return len(e.annotation) })

// CompileAnnotation parses a policy annotation (the EncodeSpans wire
// form) into a reusable CompiledAnnotation, re-instantiating each
// policy object and interning each span's policy set. Results are
// memoized per annotation bytes: re-reading a stored cell or file
// shares one compiled form — and therefore one set of policy instances
// — across raws, queries, and goroutines. A nil/empty annotation yields
// nil, which Apply treats as untainted.
func CompileAnnotation(annotation []byte) (*CompiledAnnotation, error) {
	if len(annotation) == 0 {
		return nil, nil
	}
	memoizable := len(annotation) <= annCompileMemoMaxBytes
	var key uint64
	if memoizable {
		key = maphash.Bytes(memoSeed, annotation)
		if e, ok := annCompileMemo.Get(key); ok && e.annotation == string(annotation) {
			return e.c, nil
		}
	}
	var ws []wireSpan
	if err := json.Unmarshal(annotation, &ws); err != nil {
		return nil, fmt.Errorf("resin: decode spans: %w", err)
	}
	c := &CompiledAnnotation{spans: make([]compiledSpan, 0, len(ws))}
	for _, w := range ws {
		ps := make([]Policy, 0, len(w.Policies))
		for _, enc := range w.Policies {
			p, err := DecodePolicy(enc)
			if err != nil {
				return nil, err
			}
			ps = append(ps, p)
		}
		set := NewPolicySet(ps...)
		if memoizable {
			// Only memoized compiles intern: an oversized annotation
			// instantiates fresh policies per call, so interning would
			// be a guaranteed table miss each time, churning the
			// global table.
			set = set.Intern()
		}
		c.spans = append(c.spans, compiledSpan{start: w.Start, end: w.End, set: set})
	}
	if memoizable {
		// Racing compiles converge on the installed one.
		if e, _ := annCompileMemo.GetOrAdd(key, compileMemoEntry{string(annotation), c}); e.annotation == string(annotation) {
			c = e.c
		}
	}
	return c, nil
}

// spanDecodeMemo caches DecodeSpans results per (raw, annotation)
// pair. Boundary adapters re-read the same stored bytes constantly —
// every SELECT of a policy-carrying cell, every ReadFile of an
// annotated file — and decoding is deterministic, so repeated reads
// can share one immutable String, including its policy objects and its
// interned sets; without the memo each re-read would re-parse JSON,
// re-instantiate policies, and register never-matching fresh sets in
// the intern table.
var spanDecodeMemo = NewGenCache(spanDecodeMemoCap, spanDecodeMemoMaxTotal,
	func(_ uint64, e decodeMemoEntry) int { return len(e.raw) + len(e.annotation) })

type decodeMemoEntry struct {
	raw, annotation string
	s               String
}

const (
	// spanDecodeMemoCap bounds the total number of memoized decodes.
	spanDecodeMemoCap = 4096
	// spanDecodeMemoMaxBytes bounds the size of a single memoized
	// entry (raw + annotation): a workload decoding large annotated
	// files (the vfs read path passes whole file bodies) must not pin
	// gigabytes while staying under the entry-count cap. Oversized
	// decodes skip the memo and are simply decoded each time.
	spanDecodeMemoMaxBytes = 64 << 10
	// spanDecodeMemoMaxTotal bounds the cumulative raw+annotation
	// bytes pinned by the memo, so many distinct entries near the
	// per-entry limit rotate early instead of holding hundreds of
	// megabytes until the entry-count cap trips.
	spanDecodeMemoMaxTotal = 32 << 20
)

// DecodeSpans attaches the policy annotation serialized by EncodeSpans to
// the raw string data, re-instantiating every policy object. A nil/empty
// annotation yields an untainted string.
//
// Decoded policy sets are canonicalized through the intern table, so
// the fast pointer-identity paths apply to deserialized data as well,
// and repeated decodes of the same (raw, annotation) bytes are
// memoized to one shared immutable String. Policy objects are
// therefore fresh per distinct stored annotation rather than per call;
// they are plain data (§3.4.1: the class name and data fields) and
// must not be mutated after decode.
func DecodeSpans(raw string, annotation []byte) (String, error) {
	t := NewString(raw)
	if len(annotation) == 0 {
		return t, nil
	}
	memoizable := len(raw)+len(annotation) <= spanDecodeMemoMaxBytes
	var key uint64
	if memoizable {
		key = maphash.Bytes(memoSeed, annotation) ^ maphash.String(memoSeed, raw)*0x9e3779b97f4a7c15
		if e, ok := spanDecodeMemo.Get(key); ok && e.raw == raw && e.annotation == string(annotation) {
			// A memo hit is still a boundary crossing: the caller is
			// re-reading stored bytes, so lineage must see it.
			if lineageOn() && len(e.s.spans) > 0 {
				lineageRecordSpans(e.s, "deserialize", "core.decode")
			}
			return e.s, nil
		}
	}
	comp, err := CompileAnnotation(annotation)
	if err != nil {
		return String{}, err
	}
	t = comp.Apply(raw)
	if lineageOn() && len(t.spans) > 0 {
		lineageRecordSpans(t, "deserialize", "core.decode")
	}
	if memoizable {
		spanDecodeMemo.GetOrAdd(key, decodeMemoEntry{raw, string(annotation), t})
	}
	return t, nil
}
