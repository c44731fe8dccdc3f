// Package poollife reproduces pin-lifecycle bugs: double releases and
// use-after-release of pins and mappings that may otherwise outlive the
// function that took them.
package poollife

import "errors"

// Pin-style pair: the acquire returns an index, and pins may legitimately
// outlive the acquiring function — only double-release and use-after-release
// are bugs.
//
//bess:resource acquire=Pool.Acquire release=Pool.Unpin mode=pinned
type Pool struct{ pins map[int]int }

func (p *Pool) Acquire(id int) (int, error) {
	p.pins[id]++
	return id, nil
}

func (p *Pool) Unpin(slot int) error {
	p.pins[slot]--
	return nil
}

// PinOK pins, covers the exit with a deferred unpin.
func PinOK(p *Pool) error {
	slot, err := p.Acquire(1)
	if err != nil {
		return err
	}
	defer p.Unpin(slot)
	return nil
}

// PinEscapeOK returns the pinned slot to the caller: pins may outlive us.
func PinEscapeOK(p *Pool) (int, error) {
	return p.Acquire(2)
}

// PinDouble unpins the same slot twice.
func PinDouble(p *Pool) {
	slot, _ := p.Acquire(1)
	_ = p.Unpin(slot)
	_ = p.Unpin(slot) // want poollife
}

// PinUseAfter uses the slot index after unpinning it.
func PinUseAfter(p *Pool) int {
	slot, _ := p.Acquire(1)
	_ = p.Unpin(slot)
	return slot // want poollife
}

// Mapping pair keyed by the release argument: the acquire returns only an
// error, so the analyzer tracks Unmap calls by their address expression.
//
//bess:resource acquire=Space.Map release=Space.Unmap mode=pinned
type Space struct{ maps map[uint64]bool }

func (s *Space) Map(addr uint64) error {
	s.maps[addr] = true
	return nil
}

func (s *Space) Unmap(addr uint64) error {
	delete(s.maps, addr)
	return nil
}

// DoubleUnmap releases the same address twice on one path.
func DoubleUnmap(s *Space, addr uint64) {
	_ = s.Map(addr)
	_ = s.Unmap(addr)
	_ = s.Unmap(addr) // want poollife
}

// UnmapBranchOK unmaps once on every path; the branch releases do not
// combine into a false double-release.
func UnmapBranchOK(s *Space, addr uint64, fail bool) error {
	_ = s.Map(addr)
	if fail {
		_ = s.Unmap(addr)
		return errors.New("fail")
	}
	return s.Unmap(addr)
}

// pinFirst is an acquire wrapper: its caller holds the pin.
func pinFirst(p *Pool) (int, error) { return p.Acquire(1) }

// unpin forwards its parameter to the release: calling it releases.
func unpin(p *Pool, slot int) { _ = p.Unpin(slot) }

// PinWrapperOK pins and unpins through the wrappers.
func PinWrapperOK(p *Pool) {
	slot, _ := pinFirst(p)
	unpin(p, slot)
}

// PinWrapperDouble releases through the helper, then again directly.
func PinWrapperDouble(p *Pool) {
	slot, _ := pinFirst(p)
	unpin(p, slot)
	_ = p.Unpin(slot) // want poollife
}
