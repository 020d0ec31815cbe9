package cluster

import "sort"

// Table is the epoch-versioned routing state the control plane pushes to
// nodes and clients fetch. A stable table has Next == nil; during a
// rebalance the table carries both placements: writes replicate to the
// union of Cur and Next owners (so the new placement is current the moment
// it commits), while reads stay on Cur owners (whose copies are known
// complete). Epochs only grow; a node rejects any request stamped with a
// different epoch so a stale client learns to refetch.
type Table struct {
	Epoch uint64
	Cur   *Ring
	Next  *Ring
}

// Stable reports whether no rebalance is in flight.
func (t *Table) Stable() bool { return t.Next == nil }

// ReadOwners returns the replicas a read of rng may be served from.
func (t *Table) ReadOwners(rng int) []string { return t.Cur.Owners(rng) }

// WriteOwners returns the replica chain a write of rng must reach: Cur's
// chain in chain order, extended by any Next-only owners. Index order is
// the forwarding order.
func (t *Table) WriteOwners(rng int) []string {
	owners := t.Cur.Owners(rng)
	if t.Next == nil {
		return owners
	}
	seen := make(map[string]bool, len(owners))
	for _, id := range owners {
		seen[id] = true
	}
	for _, id := range t.Next.Owners(rng) {
		if !seen[id] {
			seen[id] = true
			owners = append(owners, id)
		}
	}
	return owners
}

// Member looks id up in Cur, then Next — a joiner is addressable the
// moment its transition table is pushed.
func (t *Table) Member(id string) (Member, bool) {
	if m, ok := t.Cur.Member(id); ok || t.Next == nil {
		return m, ok
	}
	return t.Next.Member(id)
}

// writeOwned reports whether id is in rng's write set.
func (t *Table) writeOwned(rng int, id string) bool {
	for _, o := range t.WriteOwners(rng) {
		if o == id {
			return true
		}
	}
	return false
}

// members returns every member id appearing in Cur or Next, sorted — the
// ping sweep's target list.
func (t *Table) members() []string {
	var ids []string
	seen := make(map[string]bool)
	for _, m := range t.Cur.Members() {
		if !seen[m.ID] {
			seen[m.ID] = true
			ids = append(ids, m.ID)
		}
	}
	if t.Next != nil {
		for _, m := range t.Next.Members() {
			if !seen[m.ID] {
				seen[m.ID] = true
				ids = append(ids, m.ID)
			}
		}
	}
	sort.Strings(ids)
	return ids
}
