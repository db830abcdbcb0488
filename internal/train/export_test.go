package train

func (c *Ctx) Ready(it, w, layer int) bool { return c.trainer.latch(it+1, w, layer).IsOpen() }
