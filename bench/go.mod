module wqrtq/bench

go 1.24

require wqrtq v0.0.0

replace wqrtq => ../
