module indep/bench

go 1.23

require indep v0.0.0

replace indep => ../
