// The benchmark is a module of its own so that it builds from its own
// directory; it imports the compressor from the checkout it sits in.
module scdc/benchmark

go 1.22

require scdc v0.0.0

replace scdc => ../
