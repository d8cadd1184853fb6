module mirabel/bench

go 1.21

require mirabel v0.0.0

replace mirabel => ../
