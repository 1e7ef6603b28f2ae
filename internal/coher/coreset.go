package coher

import (
	"math/bits"
	"strings"
)

// CoreSet is a width-parameterized sharer bit-vector. Cores 0..127 live
// in two inline words, so every configuration the paper evaluates
// (≤128 cores per socket) is tracked with zero heap allocation and the
// exact representation the original fixed-width set used. Members ≥128
// spill into ext, an immutable extension array of 64-bit words.
//
// ext is copy-on-write: mutators never write into an existing ext
// array, they build a fresh one. Entry values are copied freely
// throughout the engine (`next := ent; next.Sharers.Add(c)`), and the
// COW discipline makes those copies behave like independent values even
// though the slice header is shared at copy time.
//
// The representation is canonical: ext is nil when no member ≥128
// exists and never carries trailing zero words, so Equal can compare
// structurally.
//
// The zero value is the empty set.
type CoreSet struct {
	w   [2]uint64
	ext []uint64 // words 2+; immutable once published; no trailing zeros
}

// inlineWords is how many 64-bit words live inline; core 128 is the
// first ext-resident member.
const inlineWords = 2

// Add inserts core c.
func (s *CoreSet) Add(c CoreID) {
	wi := int(c >> 6)
	if wi < inlineWords {
		s.w[wi] |= 1 << (c & 63)
		return
	}
	ei := wi - inlineWords
	if ei < len(s.ext) && s.ext[ei]&(1<<(c&63)) != 0 {
		return
	}
	n := len(s.ext)
	if ei+1 > n {
		n = ei + 1
	}
	ext := make([]uint64, n)
	copy(ext, s.ext)
	ext[ei] |= 1 << (c & 63)
	s.ext = ext
}

// Remove deletes core c; removing an absent core is a no-op.
func (s *CoreSet) Remove(c CoreID) {
	wi := int(c >> 6)
	if wi < inlineWords {
		s.w[wi] &^= 1 << (c & 63)
		return
	}
	ei := wi - inlineWords
	if ei >= len(s.ext) || s.ext[ei]&(1<<(c&63)) == 0 {
		return
	}
	ext := make([]uint64, len(s.ext))
	copy(ext, s.ext)
	ext[ei] &^= 1 << (c & 63)
	for len(ext) > 0 && ext[len(ext)-1] == 0 {
		ext = ext[:len(ext)-1]
	}
	if len(ext) == 0 {
		ext = nil
	}
	s.ext = ext
}

// Contains reports whether core c is in the set.
func (s CoreSet) Contains(c CoreID) bool {
	wi := int(c >> 6)
	if wi < inlineWords {
		return s.w[wi]&(1<<(c&63)) != 0
	}
	ei := wi - inlineWords
	return ei < len(s.ext) && s.ext[ei]&(1<<(c&63)) != 0
}

// Count returns the number of cores in the set.
func (s CoreSet) Count() int {
	n := bits.OnesCount64(s.w[0]) + bits.OnesCount64(s.w[1])
	for _, w := range s.ext {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s CoreSet) Empty() bool {
	return s.w[0] == 0 && s.w[1] == 0 && len(s.ext) == 0
}

// First returns the lowest-numbered member. It panics on an empty set;
// callers must check Empty first.
func (s CoreSet) First() CoreID {
	if s.w[0] != 0 {
		return CoreID(bits.TrailingZeros64(s.w[0]))
	}
	if s.w[1] != 0 {
		return CoreID(64 + bits.TrailingZeros64(s.w[1]))
	}
	for ei, w := range s.ext {
		if w != 0 {
			return CoreID((inlineWords+ei)*64 + bits.TrailingZeros64(w))
		}
	}
	panic("coher: First on empty CoreSet")
}

// ForEach calls fn for each member in ascending order.
func (s CoreSet) ForEach(fn func(CoreID)) {
	for wi, w := range s.w {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(CoreID(wi*64 + b))
			w &^= 1 << b
		}
	}
	for ei, w := range s.ext {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(CoreID((inlineWords+ei)*64 + b))
			w &^= 1 << b
		}
	}
}

// last returns the highest member of a non-empty set.
func (s CoreSet) last() CoreID {
	for ei := len(s.ext) - 1; ei >= 0; ei-- {
		if w := s.ext[ei]; w != 0 {
			return CoreID((inlineWords+ei)*64 + 63 - bits.LeadingZeros64(w))
		}
	}
	if s.w[1] != 0 {
		return CoreID(127 - bits.LeadingZeros64(s.w[1]))
	}
	return CoreID(63 - bits.LeadingZeros64(s.w[0]))
}

// sizeFor gives an empty set the extension words that hold core top,
// so the set is canonical once top is added.
func (s *CoreSet) sizeFor(top int) {
	if n := top>>6 + 1 - inlineWords; n > 0 {
		s.ext = make([]uint64, n)
	}
}

// setRange inserts cores [lo, hi) a word at a time, into words that
// already exist (see sizeFor). It writes ext in place, so it is only
// for sets still under construction.
func (s *CoreSet) setRange(lo, hi int) {
	for lo < hi {
		wi := lo >> 6
		end := min(hi, (wi+1)<<6)
		m := ^uint64(0) >> (64 - (end - lo)) << (lo & 63)
		if wi < inlineWords {
			s.w[wi] |= m
		} else {
			s.ext[wi-inlineWords] |= m
		}
		lo = end
	}
}

// Members returns the members in ascending order.
func (s CoreSet) Members() []CoreID {
	out := make([]CoreID, 0, s.Count())
	s.ForEach(func(c CoreID) { out = append(out, c) })
	return out
}

// Clear empties the set.
func (s *CoreSet) Clear() {
	s.w[0], s.w[1] = 0, 0
	s.ext = nil
}

// Equal reports whether two sets have identical membership. The
// canonical ext representation (nil when empty, no trailing zero words)
// makes structural comparison exact.
func (s CoreSet) Equal(o CoreSet) bool {
	if s.w != o.w || len(s.ext) != len(o.ext) {
		return false
	}
	for i, w := range s.ext {
		if o.ext[i] != w {
			return false
		}
	}
	return true
}

// Superset reports whether every member of o is also in s.
func (s CoreSet) Superset(o CoreSet) bool {
	if o.w[0]&^s.w[0] != 0 || o.w[1]&^s.w[1] != 0 {
		return false
	}
	for i, w := range o.ext {
		var sw uint64
		if i < len(s.ext) {
			sw = s.ext[i]
		}
		if w&^sw != 0 {
			return false
		}
	}
	return true
}

// Words exposes the low 128 bits of the representation (low word
// first), used by the bit-exact line encodings for ≤128-core sockets.
func (s CoreSet) Words() (lo, hi uint64) {
	return s.w[0], s.w[1]
}

// SetWords overwrites the representation with a ≤128-core bit-vector,
// dropping any extension words.
func (s *CoreSet) SetWords(lo, hi uint64) {
	s.w[0], s.w[1] = lo, hi
	s.ext = nil
}

// WordCount returns the number of 64-bit words needed to hold the set's
// highest member (at least the two inline words).
func (s CoreSet) WordCount() int {
	return inlineWords + len(s.ext)
}

// Word returns the i-th 64-bit word of the representation (word 0 holds
// cores 0..63). Indices past WordCount-1 read as zero.
func (s CoreSet) Word(i int) uint64 {
	if i < inlineWords {
		return s.w[i]
	}
	if ei := i - inlineWords; ei < len(s.ext) {
		return s.ext[ei]
	}
	return 0
}

// ExtWords exposes the extension words (cores 128+, low word first) for
// the fingerprint and line encoders. Callers must treat the returned
// slice as read-only; it aliases the set's immutable storage.
func (s CoreSet) ExtWords() []uint64 {
	return s.ext
}

// SetFromWords overwrites the representation from a word slice (word 0
// holds cores 0..63), canonicalizing trailing zero words. The slice is
// copied; the caller keeps ownership.
func (s *CoreSet) SetFromWords(words []uint64) {
	s.w[0], s.w[1] = 0, 0
	s.ext = nil
	if len(words) > 0 {
		s.w[0] = words[0]
	}
	if len(words) > 1 {
		s.w[1] = words[1]
	}
	rest := words[min2int(len(words), inlineWords):]
	for len(rest) > 0 && rest[len(rest)-1] == 0 {
		rest = rest[:len(rest)-1]
	}
	if len(rest) > 0 {
		ext := make([]uint64, len(rest))
		copy(ext, rest)
		s.ext = ext
	}
}

func min2int(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// String renders the set as {c0,c3,...} for debugging.
func (s CoreSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(c CoreID) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmtUint(&b, uint64(c))
	})
	b.WriteByte('}')
	return b.String()
}

func fmtUint(b *strings.Builder, v uint64) {
	if v >= 10 {
		fmtUint(b, v/10)
	}
	b.WriteByte(byte('0' + v%10))
}
