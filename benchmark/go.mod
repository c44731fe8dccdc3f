module bess/benchmark

go 1.22

require bess v0.0.0

replace bess => ../
