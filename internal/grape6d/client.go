package grape6d

import "net/rpc"

// Client is the thin host-side API of the grape6d daemon: session
// lifecycle (attach, step, detach), snapshot save/restore and the
// statistics endpoint, over net/rpc.
type Client struct {
	c *rpc.Client
}

// Dial connects to a daemon at addr (host:port).
func Dial(addr string) (*Client, error) {
	c, err := rpc.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// Close closes the connection (server-side sessions keep running;
// detach them explicitly).
func (cl *Client) Close() error { return cl.c.Close() }

// Attach creates a session integrating a seeded Plummer model.
func (cl *Client) Attach(args AttachArgs) (AttachReply, error) {
	var reply AttachReply
	err := cl.c.Call("grape6d.Attach", &args, &reply)
	return reply, err
}

// Step advances a session by whole block steps.
func (cl *Client) Step(name string, blocks int) (StepReply, error) {
	var reply StepReply
	err := cl.c.Call("grape6d.Step", &StepArgs{Name: name, Blocks: blocks}, &reply)
	return reply, err
}

// Snapshot checkpoints a session into the internal/snapshot format.
func (cl *Client) Snapshot(name string) (SnapshotReply, error) {
	var reply SnapshotReply
	err := cl.c.Call("grape6d.Snapshot", &SnapshotArgs{Name: name}, &reply)
	return reply, err
}

// Restore creates a session from a snapshot stream.
func (cl *Client) Restore(name string, data []byte) (RestoreReply, error) {
	var reply RestoreReply
	err := cl.c.Call("grape6d.Restore", &RestoreArgs{Name: name, Data: data}, &reply)
	return reply, err
}

// Detach removes a session; the fleet keeps serving other tenants.
func (cl *Client) Detach(name string) error {
	var reply DetachReply
	return cl.c.Call("grape6d.Detach", &DetachArgs{Name: name}, &reply)
}

// Stats snapshots the daemon's scheduler statistics.
func (cl *Client) Stats() (Stats, error) {
	var reply Stats
	err := cl.c.Call("grape6d.Stats", &StatsArgs{}, &reply)
	return reply, err
}

// Hash fingerprints a session's synchronized state bits.
func (cl *Client) Hash(name string) (HashReply, error) {
	var reply HashReply
	err := cl.c.Call("grape6d.Hash", &HashArgs{Name: name}, &reply)
	return reply, err
}
