module redoop/benchmark

go 1.22

require redoop v0.0.0

replace redoop => ../
