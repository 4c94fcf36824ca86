package sat

import (
	"slices"

	"repro/internal/lits"
)

// watcher is an entry in a literal's watch list: the watching clause plus a
// "blocker" literal from the clause; if the blocker is already true the
// clause is satisfied and the watch scan can skip loading the clause.
type watcher struct {
	c       cref
	blocker lits.Lit
}

// A list's offset is page<<watchShift | index, so its room starts in the
// first watchSpan watchers of its page. A page Load makes is as long as
// the rest of the load up to watchSpan, so a load of up to 2^18 watchers
// lies in one page. Pages made as lists grow are
// watchPageMin watchers long at first, each one made after doubling, up to
// the tuning's page length (watchPageMax by default). A list longer than
// the page it would go to gets a page of its own length.
const (
	watchShift   = 18
	watchSpan    = 1 << watchShift // 2 MB of watchers
	watchMask    = watchSpan - 1
	watchPageMin = 1 << 10
	watchPageMax = 1 << 14 // 128 KB
)

// watchGarbageDen: the store is compacted once the room no list has
// exceeds 1/watchGarbageDen of the room handed out.
const watchGarbageDen = 8

// watchList is a literal's record in the watch store: its n watchers lie
// from off on, in room for cap. The zero record is an empty list without
// room.
type watchList struct {
	off    uint32 // page<<watchShift | index in the page
	n, cap uint32
}

// watchStore holds every literal's watch list, in pages that never move
// once made, the way the arena holds clauses. Room is handed out at the
// top of the last page in use, pages[fill-1]; when a list does not fit
// there, the rest of that page is abandoned and the next page that holds
// it becomes the last, a spare one where one is left, a new one
// otherwise. A full list moves to new room (grow), and the room it leaves
// is garbage, which compact reclaims in place. Load lays every list out
// anew, at its exact length, over the pages the last load left.
//
// held counts the room handed out — every page in use but the last, and
// the last up to top — and garbage the part of it no list has, so
// garbage == held - Σcap always (CheckWatches).
type watchStore struct {
	lists []watchList // indexed by lit.Index()
	pages [][]watcher // each at its full length; pages[fill:] are spare
	fill  int
	top   int

	held, garbage int
	pageMax       int // the longest page made as lists grow
	loading       int // the room Load has still to hand out

	order []uint32 // compact's scratch: the lists with room, by offset
	ends  []uint32 // compact's scratch: where each page's lists end in order
	tmp   []uint32 // compact's scratch: one page's lists between two passes

	compactions int
}

// list is list i's watchers.
func (st *watchStore) list(i int) []watcher {
	l := st.lists[i]
	at := l.off & watchMask
	return st.pages[l.off>>watchShift][at : at+l.n]
}

// push appends w to list i, moving the list when it is full.
func (st *watchStore) push(i int, w watcher) {
	l := &st.lists[i]
	if l.n == l.cap {
		st.grow(l)
	}
	st.pages[l.off>>watchShift][l.off&watchMask+l.n] = w
	l.n++
}

// put appends w to list i of the store whose records and pages are lists
// and pages, and which has room for it: Load's attach pass, which laid
// every list out at its length and holds the two tables in locals. push
// is not inlined, and a reload of gcnt_m10_big at depth 20 takes 10 % less
// time through put than through push.
func put(lists []watchList, pages [][]watcher, i int, w watcher) {
	l := &lists[i]
	pages[l.off>>watchShift][l.off&watchMask+l.n] = w
	l.n++
}

// grownCap is the room a full list of cap watchers moves to: twice as much
// up to 256 watchers, a quarter more past them (append's rule), at least 2.
func grownCap(cap int) int {
	if cap < 256 {
		return max(2, 2*cap)
	}
	return cap + (cap+3*256)/4
}

// holds reports whether c watchers go at index top of pg: inside the first
// watchSpan watchers, or anywhere in a page from its start.
func holds(pg []watcher, top, c int) bool {
	return top+c <= min(len(pg), watchSpan) || top == 0 && c <= len(pg)
}

// grow gives l, a full list, more room: where it lies when it ends at the
// top and the page has room past it, new room otherwise.
func (st *watchStore) grow(l *watchList) {
	c := grownCap(int(l.cap))
	p, at := int(l.off>>watchShift), int(l.off&watchMask)
	if l.cap > 0 && p == st.fill-1 && at+int(l.cap) == st.top && holds(st.pages[p], at, c) {
		st.top += c - int(l.cap)
		st.held += c - int(l.cap)
		l.cap = uint32(c)
		return
	}
	off := st.alloc(c)
	if l.n > 0 {
		copy(st.pages[off>>watchShift][off&watchMask:], st.pages[p][at:at+int(l.n)])
	}
	st.garbage += int(l.cap)
	l.off, l.cap = off, uint32(c)
}

// alloc hands out room for c watchers at the top and returns its offset.
func (st *watchStore) alloc(c int) uint32 {
	if st.fill == 0 || !holds(st.pages[st.fill-1], st.top, c) {
		st.advance(c)
	}
	off := uint32(st.fill-1)<<watchShift | uint32(st.top)
	st.top += c
	st.held += c
	return off
}

// advance makes a page that holds c watchers the last in use: the first
// spare that does, or a new one. What the last page had left is garbage.
func (st *watchStore) advance(c int) {
	if st.fill > 0 {
		tail := len(st.pages[st.fill-1]) - st.top
		st.held += tail
		st.garbage += tail
	}
	i := st.fill
	for i < len(st.pages) && len(st.pages[i]) < c {
		i++
	}
	if i == len(st.pages) {
		if i >= 1<<(32-watchShift) {
			panic("sat: watch store exceeds 2^14 pages")
		}
		n := min(st.pageMax, watchPageMin<<min(i, watchShift))
		if st.loading > 0 {
			n = min(watchSpan, st.loading)
		}
		st.pages = append(st.pages, make([]watcher, max(c, n)))
	}
	// Spares hold no list, so swapping two of them renumbers nothing.
	st.pages[st.fill], st.pages[i] = st.pages[i], st.pages[st.fill]
	st.fill++
	st.top = 0
}

// reload empties the store and lays out an empty list for each entry of
// counts, list i with room for exactly counts[i] watchers, in list order
// over the pages the store holds and then new ones, zeroing counts as it
// goes. hint is the literal count to make the records table for when it
// has to be replaced; the page table is made large enough for the load at
// once.
func (st *watchStore) reload(counts []int32, hint, pageMax int) {
	st.lists = fit(&st.lists, len(counts), hint) // every record is set below
	st.fill, st.top, st.held, st.garbage = 0, 0, 0, 0
	st.pageMax, st.loading = pageMax, 0
	for _, k := range counts {
		st.loading += int(k)
	}
	st.pages = slices.Grow(st.pages, st.loading/watchSpan+2)
	if len(st.pages) == 0 {
		// An empty list lies at offset 0: with a page there, reading one
		// needs no test for it.
		st.advance(0)
	}
	lists := st.lists
	for i, k := range counts {
		if k == 0 {
			lists[i] = watchList{}
			continue
		}
		lists[i] = watchList{off: st.alloc(int(k)), cap: uint32(k)}
		st.loading -= int(k)
		counts[i] = 0
	}
}

// untidy reports whether garbage exceeds 1/watchGarbageDen of the room
// handed out, which is when the solver compacts the store.
func (st *watchStore) untidy() bool { return st.garbage*watchGarbageDen > st.held }

// compact slides every list with room down over the garbage, in offset
// order and in place, cutting its room to at most half as much again as
// its length and at least 2: a list that does not fit in the rest of the
// page it would go to starts the next page that holds it. No list's
// watchers or their order change. The pages past the last one a list ends
// up in are spare.
func (st *watchStore) compact() {
	order := st.byOffset()
	d, top, held, garbage := 0, 0, 0, 0
	for _, i := range order {
		l := &st.lists[i]
		c := min(int(l.cap), max(2, int(l.n+l.n/2)))
		// Every list before this one lay below it, so it fits in its own
		// page at the latest, and its room there does not overlap any list
		// still to move.
		for !holds(st.pages[d], top, c) {
			tail := len(st.pages[d]) - top
			held += tail
			garbage += tail
			d, top = d+1, 0
		}
		off := uint32(d)<<watchShift | uint32(top)
		if off != l.off {
			p, at := l.off>>watchShift, l.off&watchMask
			copy(st.pages[d][top:], st.pages[p][at:at+l.n])
		}
		l.off, l.cap = off, uint32(c)
		top += c
		held += c
	}
	st.fill, st.top, st.held, st.garbage = d+1, top, held, garbage
	if len(order) == 0 {
		st.fill = 0
	}
	st.compactions++
}

// byOffset returns, in compact's scratch, the lists with room in offset
// order, in time linear in the lists and the pages: a counting sort by
// page, then each page's lists by index.
func (st *watchStore) byOffset() []uint32 {
	st.ends = zeroed(&st.ends, st.fill, 0)
	ends := st.ends
	n := 0
	for _, l := range st.lists {
		if l.cap > 0 {
			ends[l.off>>watchShift]++
			n++
		}
	}
	var sum uint32
	for p, k := range ends {
		ends[p] = sum // where page p's lists start, until they are placed
		sum += k
	}
	st.order = fit(&st.order, n, len(st.lists)) // every entry is set below
	order := st.order
	for i, l := range st.lists {
		if l.cap > 0 {
			p := l.off >> watchShift
			order[ends[p]] = uint32(i)
			ends[p]++
		}
	}
	start := 0
	for _, end := range ends {
		if lists := order[start:end]; len(lists) > 1 {
			st.sortPage(lists)
		}
		start = int(end)
	}
	return order
}

// sortPage orders lists, which all lie in one page, by index: a counting
// sort on the index's low half into tmp, then one on its high half back.
func (st *watchStore) sortPage(lists []uint32) {
	if len(st.tmp) < len(lists) {
		st.tmp = nil
		st.tmp = make([]uint32, len(lists))
	}
	tmp := st.tmp[:len(lists)]
	st.byDigit(tmp, lists, 0)
	st.byDigit(lists, tmp, watchDigit)
}

// watchDigit is half the bits of an index in a page, rounded up.
const watchDigit = (watchShift + 1) / 2

// byDigit copies src's lists into dst, stably ordered by the watchDigit
// bits of their index from bit shift on.
func (st *watchStore) byDigit(dst, src []uint32, shift uint) {
	var at [1 << watchDigit]int
	for _, i := range src {
		at[st.lists[i].off>>shift&(1<<watchDigit-1)]++
	}
	sum := 0
	for d, k := range at {
		at[d] = sum
		sum += k
	}
	for _, i := range src {
		d := st.lists[i].off >> shift & (1<<watchDigit - 1)
		dst[at[d]] = i
		at[d]++
	}
}

// bytes is what the store holds: its pages, spare ones included, and the
// records table.
func (st *watchStore) bytes() int64 {
	n := int64(cap(st.lists)) * 12
	for _, pg := range st.pages {
		n += int64(cap(pg)) * 8
	}
	return n
}
