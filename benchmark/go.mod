module conquer/benchmark

go 1.22

require conquer v0.0.0

replace conquer => ../
