module dollymp/bench

go 1.22

require dollymp v0.0.0

replace dollymp => ../
