module akb/bench

go 1.22

require akb v0.0.0

replace akb => ../
