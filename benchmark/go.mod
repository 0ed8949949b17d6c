module channeldns/benchmark

go 1.22

require channeldns v0.0.0

replace channeldns => ../
