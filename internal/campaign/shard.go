package campaign

import (
	"fmt"
	"strconv"
	"strings"
)

// Shard selects a deterministic subset of a campaign's cell grid:
// shard i of n keeps the cells whose grid Index ≡ i (mod n). The n
// shards of one plan are pairwise disjoint and jointly exhaustive, so
// n independent processes pointed at the same plan (and, typically, a
// shared store directory) split the campaign without coordination and
// together produce exactly the unsharded store contents.
//
// The zero value selects the whole grid.
type Shard struct {
	// Index is this shard's position in [0, Count).
	Index int `json:"index"`
	// Count is the total number of shards; 0 or 1 means unsharded.
	Count int `json:"count"`
}

// ParseShard parses the CLI form "i/n" (e.g. "0/2"). The empty string
// and "0/1" are the unsharded zero value, so ParseShard(sh.String())
// returns sh for every parsed shard.
func ParseShard(s string) (Shard, error) {
	if s == "" {
		return Shard{}, nil
	}
	idx, count, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("campaign: shard %q is not of the form i/n", s)
	}
	i, err1 := strconv.Atoi(idx)
	n, err2 := strconv.Atoi(count)
	if err1 != nil || err2 != nil {
		return Shard{}, fmt.Errorf("campaign: shard %q is not of the form i/n", s)
	}
	if n < 1 {
		return Shard{}, fmt.Errorf("campaign: shard count %d < 1", n)
	}
	sh := Shard{Index: i, Count: n}
	if err := sh.Validate(); err != nil || n == 1 {
		return Shard{}, err
	}
	return sh, nil
}

// Validate reports an inconsistent shard selector.
func (sh Shard) Validate() error {
	if sh.Count == 0 && sh.Index == 0 {
		return nil // unsharded zero value
	}
	if sh.Count < 1 {
		return fmt.Errorf("campaign: shard count %d < 1", sh.Count)
	}
	if sh.Index < 0 || sh.Index >= sh.Count {
		return fmt.Errorf("campaign: shard index %d out of range [0, %d)", sh.Index, sh.Count)
	}
	return nil
}

// String renders the CLI form, or "" for the unsharded zero value.
func (sh Shard) String() string {
	if sh.Count <= 1 {
		return ""
	}
	return fmt.Sprintf("%d/%d", sh.Index, sh.Count)
}

// Filter returns the cells this shard owns, by full-grid Index, in
// grid order. Count <= 1 returns the input unchanged.
func (sh Shard) Filter(cells []Cell) []Cell {
	if sh.Count <= 1 {
		return cells
	}
	out := make([]Cell, 0, (len(cells)+sh.Count-1)/sh.Count)
	for _, c := range cells {
		if c.Index%sh.Count == sh.Index {
			out = append(out, c)
		}
	}
	return out
}
