module adaptix/bench

go 1.24

require adaptix v0.0.0

replace adaptix => ../
