package cost

import "testing"

func TestDefaultMatchesPaperTables(t *testing.T) {
	c := Default(32)
	// Table 1.
	if c.CacheBytes != 256<<10 || c.CacheAssoc != 4 || c.BlockBytes != 32 {
		t.Error("cache geometry differs from Table 1")
	}
	if c.TLBEntries != 64 || c.PageBytes != 4096 {
		t.Error("TLB/page differs from Table 1")
	}
	if c.NetLatency != 100 || c.BarrierLatency != 100 {
		t.Error("latencies differ from Table 1")
	}
	if c.PrivateMissCycles != 11 || c.DRAMCycles != 10 {
		t.Error("miss costs differ from Table 1")
	}
	// Table 2.
	if c.NIStatusCycles != 5 || c.NIWriteTagDest != 5 || c.NISendCycles != 15 || c.NIRecvCycles != 15 {
		t.Error("NI costs differ from Table 2")
	}
	if c.PacketBytes != 20 {
		t.Error("packet size differs from the CM-5's 20 bytes")
	}
	// Table 3.
	if c.MsgToSelf != 10 || c.SharedMissCycles != 19 || c.InvalidateCycles != 3 {
		t.Error("SM costs differ from Table 3")
	}
	if c.ReplPrivate != 1 || c.ReplSharedClean != 5 || c.ReplSharedDirty != 13 {
		t.Error("replacement costs differ from Table 3")
	}
	if c.DirBase != 10 || c.DirBlockRecv != 8 || c.DirMsgSend != 5 || c.DirBlockSend != 8 {
		t.Error("directory costs differ from Table 3")
	}
	if c.SMMsgBytes != 40 {
		t.Error("SM message size differs from §4 (40 bytes)")
	}
	if c.Sets() != 2048 {
		t.Errorf("sets = %d, want 2048", c.Sets())
	}
	if c.PrivateMissTotal() != 21 {
		t.Errorf("private miss total = %d, want 21", c.PrivateMissTotal())
	}
}

func TestValidate(t *testing.T) {
	good := Default(8)
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Procs = 0 },
		func(c *Config) { c.BlockBytes = 24 },
		func(c *Config) { c.CacheBytes = 1000 },
		func(c *Config) { c.PageBytes = 3000 },
		func(c *Config) { c.PageBytes = 16 },
		func(c *Config) { c.PacketPayload = 20 },
		func(c *Config) { c.NetLatency = 0 },
	}
	for i, breakIt := range cases {
		c := Default(8)
		breakIt(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}
