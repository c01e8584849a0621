module topobarrier

go 1.23
