package campaign_test

import (
	"testing"

	"chipletqc/internal/campaign"
)

// FuzzParseShard pins the -shard round trip: every shard ParseShard
// accepts is valid and re-parses from its String form to itself.
func FuzzParseShard(f *testing.F) {
	for _, s := range []string{"", "0/2", "1/2", "0/1", "3/4", "+1/2", "-0/3", "2/2", "x/y", "1/0"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sh, err := campaign.ParseShard(s)
		if err != nil {
			return
		}
		if err := sh.Validate(); err != nil {
			t.Fatalf("ParseShard(%q) = {%d %d}, which fails Validate: %v", s, sh.Index, sh.Count, err)
		}
		again, err := campaign.ParseShard(sh.String())
		if err != nil || again != sh {
			t.Fatalf("ParseShard(%q) = {%d %d}, but its String %q re-parses to {%d %d} (err %v)",
				s, sh.Index, sh.Count, sh.String(), again.Index, again.Count, err)
		}
	})
}
