package hub

// pathList is an intrusive FIFO of paths, linked through path.next and
// path.prev around a sentinel. Every attached path is on exactly one of its
// shard's lists at any moment (see shard), so one pair of links serves them
// all, a path leaves whichever list it is on without knowing which
// (unlink), and a whole list moves to the back of another in O(1) (take) —
// which is what lets a generator tick wake every caught-up path of a shard
// without visiting one. All methods need the shard's mutex; the callers
// hold it.
type pathList struct {
	root path // sentinel: root.next is the front, root.prev the back
}

// init empties the list. The sentinel points at itself, so the shard that
// embeds the list must not be copied afterwards. The caller holds the
// shard's mutex, or has not shared the shard yet.
func (l *pathList) init() {
	l.root.next, l.root.prev = &l.root, &l.root
}

// empty reports whether the list has no paths; the caller holds the
// shard's mutex.
func (l *pathList) empty() bool { return l.root.next == &l.root }

// front returns the oldest path, nil when the list is empty; the caller
// holds the shard's mutex.
func (l *pathList) front() *path { return l.after(&l.root) }

// after returns the path behind p in the list, nil when p is the last:
// `for p := l.front(); p != nil; p = l.after(p)` walks the list, as long
// as the body moves no path. The caller holds the shard's mutex.
func (l *pathList) after(p *path) *path {
	if p.next == &l.root {
		return nil
	}
	return p.next
}

// push appends p, which is on no list; the caller holds the shard's mutex.
func (l *pathList) push(p *path) {
	last := l.root.prev
	p.prev, p.next = last, &l.root
	last.next, l.root.prev = p, p
}

// pop unlinks and returns the oldest path, nil when the list is empty; the
// caller holds the shard's mutex.
func (l *pathList) pop() *path {
	p := l.front()
	if p != nil {
		p.unlink()
	}
	return p
}

// take moves every path of from to the back of l, keeping their order,
// and leaves from empty; the caller holds the shard's mutex.
func (l *pathList) take(from *pathList) {
	if from.empty() {
		return
	}
	first, last := from.root.next, from.root.prev
	back := l.root.prev
	back.next, first.prev = first, back
	last.next, l.root.prev = &l.root, last
	from.init()
}

// unlink takes p off whichever list it is on; the caller holds the shard's
// mutex.
func (p *path) unlink() {
	p.prev.next, p.next.prev = p.next, p.prev
	p.next, p.prev = nil, nil
}
