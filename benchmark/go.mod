// The benchmark is a module of its own so that it builds from its own
// directory; the path keeps it inside the gossip/ tree, which is what lets
// decorator.go name the live.Transport seam's types.
module gossip/benchmark

go 1.22

require gossip v0.0.0

replace gossip => ../
