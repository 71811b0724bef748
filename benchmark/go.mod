module silentspan/benchmark

go 1.24

require silentspan v0.0.0

replace silentspan => ../
