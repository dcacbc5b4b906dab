module readys/benchmark

go 1.22

require readys v0.0.0

replace readys => ../
